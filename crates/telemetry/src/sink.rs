//! Pluggable telemetry sinks: in-memory capture for tests, and a JSONL
//! stream writer for offline analysis.

use crate::manifest::RunManifest;
use crate::metrics::{MetricSnapshot, Snapshot, SpanStats};
use serde::{Serialize, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One telemetry occurrence delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Run identity; always the first event a sink sees.
    Manifest(RunManifest),
    /// A span closed after `seconds` of wall time.
    Span {
        path: String,
        labels: Vec<(String, String)>,
        seconds: f64,
    },
    /// Final value of one metric, emitted at flush.
    Metric(MetricSnapshot),
    /// Aggregate stats of one span path, emitted at flush.
    SpanSummary(SpanStats),
}

impl Event {
    /// Flat JSONL encoding: every line is an object with a `type`
    /// field discriminating the payload.
    pub(crate) fn to_value(&self) -> Value {
        let tagged = |type_name: &str, mut fields: Vec<(String, Value)>| {
            let mut entries = vec![("type".to_string(), Value::Str(type_name.to_string()))];
            entries.append(&mut fields);
            Value::Map(entries)
        };
        match self {
            Event::Manifest(m) => tagged("manifest", vec![("run".into(), m.to_value())]),
            Event::Span {
                path,
                labels,
                seconds,
            } => tagged(
                "span",
                vec![
                    ("path".into(), Value::Str(path.clone())),
                    ("labels".into(), labels.to_value()),
                    ("seconds".into(), Value::Float(*seconds)),
                ],
            ),
            Event::Metric(m) => tagged("metric", vec![("metric".into(), m.to_value())]),
            Event::SpanSummary(s) => tagged("span_summary", vec![("span".into(), s.to_value())]),
        }
    }
}

/// Destination for telemetry events.
pub trait Sink: Send {
    /// Delivers one event; called on the producing thread.
    fn record(&mut self, event: &Event);

    /// Called by `Telemetry::flush` after final metric events were
    /// recorded; IO-backed sinks should persist here.
    fn flush(&mut self, snapshot: &Snapshot) {
        let _ = snapshot;
    }
}

/// Test-facing handle onto the events a [`MemorySink`] captured.
#[derive(Debug, Clone, Default)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemoryHandle {
    /// Copies out every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Sink that appends every event to a shared in-memory buffer.
#[derive(Debug, Default)]
pub struct MemorySink {
    handle: MemoryHandle,
}

impl MemorySink {
    pub(crate) fn new() -> (Self, MemoryHandle) {
        let sink = MemorySink::default();
        let handle = sink.handle.clone();
        (sink, handle)
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.handle
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Sink that writes one JSON object per line to a file. The first
/// line is always the run manifest.
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the stream file at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created.
    pub(crate) fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if let Ok(line) = serde_json::to_string(&event.to_value()) {
            // A full disk surfaces at flush; per-event errors are not
            // worth failing a training run over.
            let _ = writeln!(self.writer, "{line}");
        }
    }

    fn flush(&mut self, _snapshot: &Snapshot) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_shares_events_with_handle() {
        let (mut sink, handle) = MemorySink::new();
        sink.record(&Event::Span {
            path: "a/b".into(),
            labels: vec![],
            seconds: 0.25,
        });
        let events = handle.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], Event::Span { path, .. } if path == "a/b"));
    }

    #[test]
    fn events_encode_with_type_tags() {
        let v = Event::Span {
            path: "epoch".into(),
            labels: vec![("i".into(), "3".into())],
            seconds: 1.5,
        }
        .to_value();
        assert_eq!(v.field("type").unwrap().as_str(), Some("span"));
        assert_eq!(v.field("path").unwrap().as_str(), Some("epoch"));
    }
}
