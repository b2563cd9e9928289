//! S1 — panic reachability.
//!
//! Finds every explicit panic site (`unwrap`, `expect`, `panic!`,
//! `todo!`, `unimplemented!`) in the library code of the numeric
//! crates, then walks the workspace call graph forwards from the
//! public API surface. A site is reported only when some `pub fn` of a
//! numeric crate transitively reaches it; the diagnostic prints the
//! exact (shortest, BFS-deterministic) call chain so the reader can
//! audit the path.
//!
//! `xs[i]` indexing is deliberately not a site: an out-of-bounds index
//! is a deterministic panic on the first run that reaches it, and the
//! mutation audit in DESIGN.md §9 found every seeded index bug failed
//! by the crate's own tests, including the ones a bounds prover missed.

use crate::ast::{expr_text, ExprKind};
use crate::model::{walk_block_exprs, FnInfo, Workspace};
use crate::rules::Finding;
use std::collections::VecDeque;

/// One panic-capable site inside a function body.
struct Danger {
    fn_id: usize,
    line: u32,
    desc: String,
}

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let dangers = collect_dangers(ws);
    if dangers.is_empty() {
        return Vec::new();
    }

    // Multi-source BFS from the public API surface of the numeric
    // crates. `parent[v]` records the BFS tree edge, which makes the
    // reported chain the shortest one and deterministic (sources and
    // neighbours are visited in ascending fn id order).
    let n = ws.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for f in &ws.fns {
        if is_entry_point(f) {
            reached[f.id] = true;
            queue.push_back(f.id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &ws.callees[u] {
            if !reached[v] {
                reached[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    let mut findings = Vec::new();
    for d in dangers {
        if !reached[d.fn_id] {
            continue;
        }
        let chain = chain_to(ws, &parent, d.fn_id);
        findings.push(Finding {
            rule: "S1".into(),
            file: ws.fns[d.fn_id].file.clone(),
            line: d.line,
            message: format!(
                "{} reachable from public API via {}",
                d.desc,
                chain.join(" -> ")
            ),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

fn is_entry_point(f: &FnInfo) -> bool {
    f.is_pub && f.is_numeric_lib()
}

/// Walks BFS parents from the danger's function back to its entry
/// point, returning display names entry-first.
fn chain_to(ws: &Workspace, parent: &[Option<usize>], mut v: usize) -> Vec<String> {
    let mut chain = vec![ws.fns[v].display()];
    while let Some(p) = parent[v] {
        chain.push(ws.fns[p].display());
        v = p;
    }
    chain.reverse();
    chain
}

fn collect_dangers(ws: &Workspace) -> Vec<Danger> {
    let mut out = Vec::new();
    for f in &ws.fns {
        if !f.is_numeric_lib() {
            continue;
        }
        let Some(body) = &f.body else { continue };
        walk_block_exprs(body, &mut |e| match &e.kind {
            ExprKind::MethodCall { recv, method, .. }
                if method == "unwrap" || method == "expect" =>
            {
                out.push(Danger {
                    fn_id: f.id,
                    line: e.line,
                    desc: format!("`{}.{}()`", clip(&expr_text(recv)), method),
                });
            }
            ExprKind::MacroCall { path, .. }
                if matches!(
                    path.last().map(String::as_str),
                    Some("panic" | "todo" | "unimplemented")
                ) =>
            {
                out.push(Danger {
                    fn_id: f.id,
                    line: e.line,
                    desc: format!("`{}!`", path.last().unwrap()),
                });
            }
            _ => {}
        });
    }
    out
}

/// Keeps diagnostics one-line even for gnarly receivers.
fn clip(s: &str) -> String {
    if s.len() > 40 {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(37)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    } else {
        s.to_string()
    }
}
