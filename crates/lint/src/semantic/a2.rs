//! A2 — SIMD-readiness: `std::arch` intrinsic hygiene.
//!
//! The upcoming SIMD microkernel PR (ROADMAP) will introduce
//! `unsafe` `core::arch` intrinsics into the GEMM layer. This rule
//! gates that work from day one; on the current workspace it is
//! vacuous (proven non-vacuous by fixtures). Three requirements:
//!
//! 1. Any expression using a `std::arch`/`core::arch` intrinsic
//!    (`_mm…`-prefixed names, or paths through an `arch` module's
//!    `x86`/`x86_64`/`aarch64` submodules) must live in a function
//!    annotated `#[target_feature(enable = "…")]`.
//! 2. Every call to a `#[target_feature]` function from a
//!    non-`target_feature` caller must sit in the `then` branch of an
//!    `if` whose condition checks `is_x86_feature_detected!` and that
//!    has an `else` branch — the scalar fallback the paper's
//!    portability claim depends on.
//! 3. A `// SAFETY:` comment must appear within the three source
//!    lines above each intrinsic use (comments are stripped before
//!    parsing, so this check reads the raw source kept on
//!    [`SourceFile`](crate::model::SourceFile)).
//!
//! The `accel` crate's `arch.rs` models accelerator *architectures*
//! (no intrinsics); the detection below keys on intrinsic name shape
//! and `arch`-module path segments, not on the word "arch" appearing
//! anywhere.

use crate::ast::{Expr, ExprKind};
use crate::model::{walk_block_exprs, FnInfo, Workspace};
use crate::rules::Finding;
use std::collections::BTreeSet;

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pass 1: intrinsic uses inside each fn.
    for f in &ws.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut uses: Vec<(&Expr, String)> = Vec::new();
        walk_block_exprs(body, &mut |e| {
            if let Some(name) = intrinsic_name(e) {
                uses.push((e, name));
            }
        });
        if uses.is_empty() {
            continue;
        }
        let guarded_fn = has_target_feature(f);
        let src = ws.files.iter().find(|file| file.rel == f.file);
        let mut seen_lines = BTreeSet::new();
        for (e, name) in uses {
            if !seen_lines.insert((e.line, name.clone())) {
                continue;
            }
            if !guarded_fn {
                findings.push(Finding {
                    rule: "A2".into(),
                    file: f.file.clone(),
                    line: e.line,
                    message: format!(
                        "intrinsic `{name}` used outside a #[target_feature] function"
                    ),
                });
            }
            if let Some(src) = src {
                if !safety_comment_above(&src.src, e.line) {
                    findings.push(Finding {
                        rule: "A2".into(),
                        file: f.file.clone(),
                        line: e.line,
                        message: format!(
                            "intrinsic `{name}` lacks a `// SAFETY:` comment within 3 lines above"
                        ),
                    });
                }
            }
        }
    }

    // Pass 2: calls into #[target_feature] fns need a runtime-detect
    // guard with a scalar fallback.
    let tf_names: BTreeSet<&str> = ws
        .fns
        .iter()
        .filter(|f| has_target_feature(f))
        .map(|f| f.name.as_str())
        .collect();
    if !tf_names.is_empty() {
        for f in &ws.fns {
            if f.in_test || has_target_feature(f) {
                continue;
            }
            let Some(body) = &f.body else { continue };
            // Collect guarded regions: then-blocks of
            // `if is_x86_feature_detected!(…) { … } else { … }`.
            let mut guarded: Vec<(&Expr, bool)> = Vec::new(); // (call, guarded?)
            collect_tf_calls(body, &tf_names, false, &mut guarded);
            for (call, ok) in guarded {
                if !ok {
                    let name = call_name(call).unwrap_or_default();
                    findings.push(Finding {
                        rule: "A2".into(),
                        file: f.file.clone(),
                        line: call.line,
                        message: format!(
                            "call to #[target_feature] fn `{name}` without an \
                             is_x86_feature_detected! guard and scalar fallback"
                        ),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

fn has_target_feature(f: &FnInfo) -> bool {
    f.attrs.iter().any(|a| a.contains("target_feature"))
}

/// Intrinsic detection: `_mm`-prefixed identifiers, or a path whose
/// segments pass through `arch` into a platform submodule.
fn intrinsic_name(e: &Expr) -> Option<String> {
    let segs = match &e.kind {
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => segs,
            _ => return None,
        },
        ExprKind::Path(segs) => segs,
        _ => return None,
    };
    let last = segs.last()?;
    if last.starts_with("_mm") || last.starts_with("vld") || last.starts_with("vst") {
        return Some(last.clone());
    }
    for (i, s) in segs.iter().enumerate() {
        if s == "arch" {
            if let Some(next) = segs.get(i + 1) {
                if matches!(next.as_str(), "x86" | "x86_64" | "aarch64" | "arm") {
                    return Some(last.clone());
                }
            }
        }
    }
    None
}

/// `// SAFETY:` on the use line or within the 3 lines above it
/// (`line` is 1-indexed).
fn safety_comment_above(src: &str, line: u32) -> bool {
    let line = line as usize;
    let lo = line.saturating_sub(3); // 1-indexed lines [line-3, line]
    src.lines()
        .enumerate()
        .any(|(i, l)| i + 1 >= lo.max(1) && i < line && l.contains("// SAFETY:"))
}

/// Collects calls to `#[target_feature]` fns, tracking whether each
/// call sits in the then-branch of a detect-guarded `if` *with* an
/// else branch.
fn collect_tf_calls<'a>(
    block: &'a crate::ast::Block,
    tf_names: &BTreeSet<&str>,
    guarded: bool,
    out: &mut Vec<(&'a Expr, bool)>,
) {
    for stmt in &block.stmts {
        let e = match stmt {
            crate::ast::Stmt::Let { init: Some(e), .. } => e,
            crate::ast::Stmt::Expr { expr, .. } => expr,
            _ => continue,
        };
        collect_tf_calls_expr(e, tf_names, guarded, out);
    }
}

fn collect_tf_calls_expr<'a>(
    e: &'a Expr,
    tf_names: &BTreeSet<&str>,
    guarded: bool,
    out: &mut Vec<(&'a Expr, bool)>,
) {
    match &e.kind {
        ExprKind::If { cond, then, else_ } => {
            let detect = cond_has_detect(cond) && else_.is_some();
            collect_tf_calls_expr(cond, tf_names, guarded, out);
            collect_tf_calls(then, tf_names, guarded || detect, out);
            if let Some(else_e) = else_ {
                collect_tf_calls_expr(else_e, tf_names, guarded, out);
            }
        }
        ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
            collect_tf_calls(b, tf_names, guarded, out)
        }
        ExprKind::While { cond, body } => {
            collect_tf_calls_expr(cond, tf_names, guarded, out);
            collect_tf_calls(body, tf_names, guarded, out);
        }
        ExprKind::ForLoop { iter, body, .. } => {
            collect_tf_calls_expr(iter, tf_names, guarded, out);
            collect_tf_calls(body, tf_names, guarded, out);
        }
        _ => {
            if let Some(name) = call_name(e) {
                if tf_names.contains(name.as_str()) {
                    out.push((e, guarded));
                }
            }
            let mut subs = Vec::new();
            crate::ast::collect_children(e, &mut subs);
            for s in subs {
                collect_tf_calls_expr(s, tf_names, guarded, out);
            }
        }
    }
}

fn cond_has_detect(cond: &Expr) -> bool {
    let mut found = false;
    cond.walk(&mut |e| {
        if let ExprKind::MacroCall { path, .. } = &e.kind {
            if path.last().is_some_and(|p| p.contains("feature_detected")) {
                found = true;
            }
        }
    });
    found
}

fn call_name(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Call { callee, .. } => callee.path_last().map(str::to_string),
        ExprKind::MethodCall { method, .. } => Some(method.clone()),
        _ => None,
    }
}
