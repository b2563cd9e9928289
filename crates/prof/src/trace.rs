//! The span tracer: an [`eta_telemetry::SpanObserver`] that records
//! every span enter/exit with a monotonic timestamp and a stable
//! per-thread id, plus the [`TraceSession`] attach/export lifecycle.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eta_telemetry::{SpanObserver, Telemetry};

/// Begin/End marker of one trace event (Chrome trace-event phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One recorded span boundary.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Begin or End.
    pub ph: Phase,
    /// Span name (the leaf of its path).
    pub name: &'static str,
    /// Full hierarchical path — `Begin` events only.
    pub path: Option<String>,
    /// Stable id of the recording thread.
    pub tid: u32,
    /// Microseconds since the tracer was created (monotonic clock).
    pub ts_us: u64,
}

// Stable small thread ids: assigned once per OS thread, in first-use
// order, shared by every tracer in the process. Trace *structure*
// never depends on these (see [`Tracer::structure`]); they only label
// Chrome trace rows.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u32 {
    TID.with(|t| *t)
}

// Per-thread skip state for the event cap: `(tracer_id, depth)`. Once
// a tracer is full, each thread skips *whole subtrees* — a skipped
// Begin increments the depth and its matching End decrements it, so
// spans that opened before the cap still get their End recorded and
// every exported trace stays LIFO-balanced. The tracer id keeps state
// from one tracer leaking into the next on the same thread.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static SKIP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Default event cap per tracer: bounds trace memory and file size on
/// long runs (the per-timestep cell scopes emit millions of boundaries
/// on a full harness run) while keeping more than enough structure for
/// Perfetto. At ~90 bytes per exported event this is ~25 MB of JSON.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 18;

/// Records span boundaries from every thread into one event log.
///
/// Attach with
/// [`Telemetry::set_span_observer`](eta_telemetry::Telemetry::set_span_observer);
/// recording costs one `Instant` read and one mutex push per boundary,
/// and nothing is recorded while detached. Once the event cap is
/// reached, new span subtrees are dropped (counted, never silently)
/// rather than growing without bound.
pub struct Tracer {
    id: u64,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    max_events: usize,
    dropped: AtomicU64,
}

impl Tracer {
    /// A fresh tracer with the [`DEFAULT_MAX_EVENTS`] cap; its clock
    /// starts now.
    pub fn new() -> Arc<Tracer> {
        Self::with_limit(DEFAULT_MAX_EVENTS)
    }

    /// A fresh tracer dropping new span subtrees past `max_events`
    /// recorded boundaries (Ends of already-open spans still record,
    /// so the cap may be exceeded by the open-span depth).
    pub fn with_limit(max_events: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            max_events,
            dropped: AtomicU64::new(0),
        })
    }

    /// Spans dropped because the event cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// This thread's skip depth under *this* tracer.
    fn skip_depth(&self) -> u64 {
        let (id, depth) = SKIP.get();
        if id == self.id {
            depth
        } else {
            0
        }
    }

    fn push(&self, ev: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }

    /// Snapshot of all recorded events (insertion order; per-thread
    /// subsequences are time-ordered).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of complete spans recorded (Begin events).
    pub fn span_count(&self) -> u64 {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|e| e.ph == Phase::Begin)
            .count() as u64
    }

    /// Number of distinct threads that recorded at least one event.
    pub fn thread_count(&self) -> u64 {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events.iter().map(|e| e.tid).collect::<BTreeSet<_>>().len() as u64
    }

    /// The trace's *structure*: a multiset of span paths with counts.
    /// Timestamps and thread ids are deliberately excluded — for a
    /// deterministic workload this map is identical across runs and
    /// thread counts (shard spans are rooted per shard, not per
    /// thread), which is what the determinism tests compare.
    pub fn structure(&self) -> BTreeMap<String, u64> {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut map = BTreeMap::new();
        for ev in events.iter() {
            if let Some(path) = &ev.path {
                *map.entry(path.clone()).or_insert(0u64) += 1;
            }
        }
        map
    }
}

impl SpanObserver for Tracer {
    fn enter_span(&self, name: &'static str, path: &str) {
        let depth = self.skip_depth();
        if depth > 0 {
            SKIP.set((self.id, depth + 1));
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() >= self.max_events {
            drop(events);
            SKIP.set((self.id, 1));
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(TraceEvent {
            ph: Phase::Begin,
            name,
            path: Some(path.to_string()),
            tid: current_tid(),
            ts_us,
        });
    }

    fn exit_span(&self, name: &'static str, _seconds: f64) {
        let depth = self.skip_depth();
        if depth > 0 {
            SKIP.set((self.id, depth - 1));
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.push(TraceEvent {
            ph: Phase::End,
            name,
            path: None,
            tid: current_tid(),
            ts_us,
        });
    }
}

/// Attach-trace-export lifecycle around a [`Tracer`].
///
/// Created with an output directory and a binary name; on
/// [`finish`](TraceSession::finish) (or drop) it detaches the
/// observer, writes `<dir>/<binary>.trace.json` (Chrome trace-event
/// JSON) and `<dir>/<binary>.folded.txt` (collapsed stacks), and
/// emits `trace_spans_total` / `trace_threads` telemetry.
pub struct TraceSession {
    tracer: Arc<Tracer>,
    telemetry: Telemetry,
    dir: PathBuf,
    binary: String,
    finished: bool,
}

impl TraceSession {
    /// Attaches a fresh tracer to `telemetry` and returns the session.
    /// Trace files land in `dir` (created if missing) under
    /// `<binary>.trace.json` / `<binary>.folded.txt`.
    pub fn start(telemetry: Telemetry, dir: &Path, binary: &str) -> TraceSession {
        let tracer = Tracer::new();
        telemetry.set_span_observer(tracer.clone());
        TraceSession {
            tracer,
            telemetry,
            dir: dir.to_path_buf(),
            binary: binary.to_string(),
            finished: false,
        }
    }

    /// The underlying tracer (for structure/event assertions).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Detaches the tracer, writes both trace artifacts and emits the
    /// trace telemetry keys. Returns the Chrome trace path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the artifacts.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> std::io::Result<PathBuf> {
        self.finished = true;
        self.telemetry.clear_span_observer();
        let events = self.tracer.events();
        std::fs::create_dir_all(&self.dir)?;
        let trace_path = self.dir.join(format!("{}.trace.json", self.binary));
        std::fs::write(&trace_path, crate::chrome::export(&events))?;
        let folded_path = self.dir.join(format!("{}.folded.txt", self.binary));
        std::fs::write(&folded_path, crate::flame::folded(&events))?;
        self.telemetry.incr(
            eta_telemetry::keys::TRACE_SPANS_TOTAL,
            self.tracer.span_count(),
        );
        self.telemetry.incr(
            eta_telemetry::keys::TRACE_SPANS_DROPPED_TOTAL,
            self.tracer.dropped_spans(),
        );
        self.telemetry.gauge(
            eta_telemetry::keys::TRACE_THREADS,
            self.tracer.thread_count() as f64,
        );
        Ok(trace_path)
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort export on unwinding/forgotten sessions.
            let _ = self.finish_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_telemetry::RunManifest;

    fn telemetry() -> Telemetry {
        Telemetry::new(RunManifest::capture("prof_trace_test", "0".into(), 1))
    }

    #[test]
    fn tracer_records_nested_spans_with_paths() {
        let t = telemetry();
        let tracer = Tracer::new();
        t.set_span_observer(tracer.clone());
        {
            let _a = t.span("outer");
            let _b = t.span("inner");
        }
        t.clear_span_observer();
        let events = tracer.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].path.as_deref(), Some("outer"));
        assert_eq!(events[1].path.as_deref(), Some("outer/inner"));
        assert_eq!(events[2].ph, Phase::End);
        assert_eq!(events[2].name, "inner");
        assert_eq!(events[3].name, "outer");
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(tracer.thread_count(), 1);
        let s = tracer.structure();
        assert_eq!(s.get("outer"), Some(&1));
        assert_eq!(s.get("outer/inner"), Some(&1));
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let t = telemetry();
        let tracer = Tracer::new();
        t.set_span_observer(tracer.clone());
        for _ in 0..10 {
            let _s = t.span("tick");
        }
        t.clear_span_observer();
        let events = tracer.events();
        for w in events.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
    }

    #[test]
    fn event_cap_drops_whole_subtrees_but_stays_balanced() {
        let t = telemetry();
        let tracer = Tracer::with_limit(3);
        t.set_span_observer(tracer.clone());
        {
            // Opens before the cap trips: B(outer), B(first), E(first)
            // fill the 3-event budget; `late` and its child are then
            // skipped as one subtree, but outer's End still records.
            let _outer = t.span("outer");
            {
                let _first = t.span("first");
            }
            {
                let _late = t.span("late");
                let _child = t.span("child");
            }
        }
        t.clear_span_observer();
        assert_eq!(tracer.dropped_spans(), 2);
        let events = tracer.events();
        let begins = events.iter().filter(|e| e.ph == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.ph == Phase::End).count();
        assert_eq!(begins, ends, "capped trace must stay B/E balanced");
        crate::chrome::validate_chrome_trace(&crate::chrome::export(&events)).unwrap();
        assert!(tracer.structure().contains_key("outer"));
        assert!(!tracer.structure().contains_key("outer/late"));
    }

    #[test]
    fn session_writes_both_artifacts_and_emits_keys() {
        let t = telemetry();
        let dir =
            std::env::temp_dir().join(format!("eta_prof_session_test_{}", std::process::id()));
        let session = TraceSession::start(t.clone(), &dir, "unit");
        {
            let _s = t.span("work");
        }
        let trace_path = session.finish().unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        crate::chrome::validate_chrome_trace(&text).unwrap();
        let folded = std::fs::read_to_string(dir.join("unit.folded.txt")).unwrap();
        assert!(folded.contains("work"));
        let snap = t.snapshot();
        assert_eq!(
            snap.counter_total(eta_telemetry::keys::TRACE_SPANS_TOTAL),
            1
        );
        assert_eq!(
            snap.counter_total(eta_telemetry::keys::TRACE_SPANS_DROPPED_TOTAL),
            0
        );
        assert_eq!(snap.gauge(eta_telemetry::keys::TRACE_THREADS), Some(1.0));
        // The observer is detached: new spans are no longer recorded.
        {
            let _s = t.span("after");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
