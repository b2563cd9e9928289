//! Collapsed-stack flamegraph export.
//!
//! Replays each thread's begin/end events into `name;name;...` stack
//! lines with **self** microseconds (span duration minus time spent in
//! child spans), the format `flamegraph.pl` and `inferno-flamegraph`
//! consume. Identical stacks from different threads merge into one
//! line, so a flamegraph of a sharded run shows one `shard` subtree
//! with all shards' time folded together.

use std::collections::BTreeMap;

use crate::trace::{Phase, TraceEvent};

struct Frame {
    name: &'static str,
    start_us: u64,
    child_us: u64,
}

/// Renders events as collapsed-stack lines, sorted by stack name.
/// Unmatched opens (a tracer detached mid-span) are dropped rather
/// than guessed at.
pub(crate) fn folded(events: &[TraceEvent]) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut stacks: Vec<(u32, Vec<Frame>)> = Vec::new();
    for ev in events {
        let stack = match stacks.iter_mut().find(|(t, _)| *t == ev.tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((ev.tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ev.ph {
            Phase::Begin => stack.push(Frame {
                name: ev.name,
                start_us: ev.ts_us,
                child_us: 0,
            }),
            Phase::End => {
                let Some(frame) = stack.pop() else { continue };
                let dur = ev.ts_us.saturating_sub(frame.start_us);
                let self_us = dur.saturating_sub(frame.child_us);
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += dur;
                }
                let mut key = String::new();
                for f in stack.iter() {
                    key.push_str(f.name);
                    key.push(';');
                }
                key.push_str(frame.name);
                *totals.entry(key).or_insert(0) += self_us;
            }
        }
    }
    let mut out = String::new();
    for (stack, us) in totals {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: Phase, name: &'static str, tid: u32, ts_us: u64) -> TraceEvent {
        TraceEvent {
            ph,
            name,
            path: matches!(ph, Phase::Begin).then(|| name.to_string()),
            tid,
            ts_us,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let events = vec![
            ev(Phase::Begin, "outer", 1, 0),
            ev(Phase::Begin, "inner", 1, 10),
            ev(Phase::End, "inner", 1, 40),
            ev(Phase::End, "outer", 1, 100),
        ];
        let text = folded(&events);
        assert!(text.contains("outer 70\n"), "{text}");
        assert!(text.contains("outer;inner 30\n"), "{text}");
    }

    #[test]
    fn threads_merge_into_shared_stacks() {
        let events = vec![
            ev(Phase::Begin, "shard", 1, 0),
            ev(Phase::Begin, "shard", 2, 0),
            ev(Phase::End, "shard", 2, 5),
            ev(Phase::End, "shard", 1, 7),
        ];
        assert_eq!(folded(&events), "shard 12\n");
    }

    #[test]
    fn unmatched_events_are_dropped() {
        let events = vec![ev(Phase::End, "x", 1, 3)];
        assert_eq!(folded(&events), "");
    }
}
