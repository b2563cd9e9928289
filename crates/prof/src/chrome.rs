//! Chrome trace-event JSON export and structural validation.
//!
//! The export uses paired `B`/`E` (duration begin/end) events — the
//! append-only encoding, no backpatching of durations — in the JSON
//! object format `{"traceEvents": [...]}` that Perfetto and
//! `chrome://tracing` load directly. Timestamps are microseconds
//! (the format's unit), `pid` is constant 1, and each event carries
//! the recording thread's stable id as `tid`; `B` events attach the
//! span's hierarchical path under `args.path`.
//!
//! [`validate_chrome_trace`] is the round-trip check the tests and CI
//! use: it re-parses the JSON and verifies the event stream is
//! structurally sound — every `E` matches the innermost open `B` on
//! its thread (no exit-before-enter, proper LIFO nesting), timestamps
//! never run backwards per thread, nothing is left open, and every
//! nested path resolves to its parent span on the same thread.

use std::collections::BTreeSet;

use serde::Value;

use crate::trace::{Phase, TraceEvent};

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders recorded events as Chrome trace-event JSON.
pub(crate) fn export(events: &[TraceEvent]) -> String {
    let trace_events: Vec<Value> = events
        .iter()
        .map(|ev| {
            let mut fields = vec![
                ("name", Value::Str(ev.name.to_string())),
                ("cat", Value::Str("eta".to_string())),
                (
                    "ph",
                    Value::Str(match ev.ph {
                        Phase::Begin => "B".to_string(),
                        Phase::End => "E".to_string(),
                    }),
                ),
                ("ts", Value::UInt(ev.ts_us)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(ev.tid as u64)),
            ];
            if let Some(path) = &ev.path {
                fields.push(("args", map(vec![("path", Value::Str(path.clone()))])));
            }
            map(fields)
        })
        .collect();
    let root = map(vec![("traceEvents", Value::Seq(trace_events))]);
    serde_json::to_string(&root).expect("value tree serializes")
}

/// Summary statistics of a validated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total events (begin + end).
    pub(crate) events: usize,
    /// Complete spans (begin events, all matched).
    pub(crate) spans: usize,
    /// Distinct thread ids.
    pub(crate) threads: usize,
}

struct OpenSpan {
    name: String,
    path: String,
}

/// Parses Chrome trace-event JSON and verifies its span structure.
///
/// # Errors
///
/// Returns a description of the first structural defect: malformed
/// JSON, an unknown phase, an `E` without a matching open `B` on the
/// same thread, a name mismatch at close (broken LIFO nesting), a
/// per-thread timestamp running backwards, a nested span whose path
/// does not extend its innermost open ancestor, or spans left open at
/// the end of the stream.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeStats, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = match root.get("traceEvents") {
        Some(Value::Seq(events)) => events,
        _ => return Err("missing `traceEvents` array".to_string()),
    };

    // Per-tid open-span stacks and last-seen timestamps.
    let mut stacks: Vec<(u64, Vec<OpenSpan>)> = Vec::new();
    let mut last_ts: Vec<(u64, u64)> = Vec::new();
    let mut tids = BTreeSet::new();
    let mut spans = 0usize;

    for (idx, ev) in events.iter().enumerate() {
        let field_str = |key: &str| -> Result<&str, String> {
            ev.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {idx}: missing string `{key}`"))
        };
        let field_u64 = |key: &str| -> Result<u64, String> {
            ev.get(key)
                .and_then(Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("event {idx}: missing number `{key}`"))
        };
        let name = field_str("name")?;
        let ph = field_str("ph")?;
        let ts = field_u64("ts")?;
        let tid = field_u64("tid")?;
        tids.insert(tid);

        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "event {idx}: timestamp {ts} runs backwards on tid {tid} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }

        let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };

        match ph {
            "B" => {
                let path = ev
                    .get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {idx}: B event without args.path"))?;
                // A nested path must extend the innermost open span on
                // this thread; a root path (no '/') opens a fresh
                // hierarchy (e.g. shard roots) and needs no parent.
                if path.contains('/') {
                    let parent = stack.last().ok_or_else(|| {
                        format!("event {idx}: nested `{path}` with no open parent")
                    })?;
                    let expected = format!("{}/{}", parent.path, name);
                    if *path != expected {
                        return Err(format!(
                            "event {idx}: path `{path}` does not extend parent `{}`",
                            parent.path
                        ));
                    }
                }
                stack.push(OpenSpan {
                    name: name.to_string(),
                    path: path.to_string(),
                });
                spans += 1;
            }
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {idx}: E `{name}` before any B on tid {tid}"))?;
                if open.name != name {
                    return Err(format!(
                        "event {idx}: E `{name}` closes innermost B `{}` (broken nesting)",
                        open.name
                    ));
                }
            }
            other => return Err(format!("event {idx}: unknown phase `{other}`")),
        }
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "span `{}` left open on tid {tid} at end of trace",
                open.path
            ));
        }
    }

    Ok(ChromeStats {
        events: events.len(),
        spans,
        threads: tids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: Phase, name: &'static str, path: Option<&str>, tid: u32, ts_us: u64) -> TraceEvent {
        TraceEvent {
            ph,
            name,
            path: path.map(str::to_string),
            tid,
            ts_us,
        }
    }

    #[test]
    fn export_round_trips_through_validation() {
        let events = vec![
            ev(Phase::Begin, "epoch", Some("epoch"), 1, 0),
            ev(Phase::Begin, "batch", Some("epoch/batch"), 1, 5),
            ev(Phase::Begin, "shard", Some("shard"), 2, 6),
            ev(Phase::End, "shard", None, 2, 9),
            ev(Phase::End, "batch", None, 1, 10),
            ev(Phase::End, "epoch", None, 1, 12),
        ];
        let stats = validate_chrome_trace(&export(&events)).unwrap();
        assert_eq!(
            stats,
            ChromeStats {
                events: 6,
                spans: 3,
                threads: 2
            }
        );
    }

    #[test]
    fn exit_before_enter_is_rejected() {
        let events = vec![ev(Phase::End, "x", None, 1, 0)];
        let err = validate_chrome_trace(&export(&events)).unwrap_err();
        assert!(err.contains("before any B"), "{err}");
    }

    #[test]
    fn crossed_nesting_is_rejected() {
        let events = vec![
            ev(Phase::Begin, "a", Some("a"), 1, 0),
            ev(Phase::Begin, "b", Some("a/b"), 1, 1),
            ev(Phase::End, "a", None, 1, 2),
            ev(Phase::End, "b", None, 1, 3),
        ];
        let err = validate_chrome_trace(&export(&events)).unwrap_err();
        assert!(err.contains("broken nesting"), "{err}");
    }

    #[test]
    fn unparented_nested_path_is_rejected() {
        let events = vec![
            ev(Phase::Begin, "b", Some("a/b"), 1, 0),
            ev(Phase::End, "b", None, 1, 1),
        ];
        let err = validate_chrome_trace(&export(&events)).unwrap_err();
        assert!(err.contains("no open parent"), "{err}");
    }

    #[test]
    fn backwards_timestamps_are_rejected() {
        let events = vec![
            ev(Phase::Begin, "a", Some("a"), 1, 10),
            ev(Phase::End, "a", None, 1, 5),
        ];
        let err = validate_chrome_trace(&export(&events)).unwrap_err();
        assert!(err.contains("runs backwards"), "{err}");
    }

    #[test]
    fn dangling_open_span_is_rejected() {
        let events = vec![ev(Phase::Begin, "a", Some("a"), 1, 0)];
        let err = validate_chrome_trace(&export(&events)).unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn garbage_json_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
