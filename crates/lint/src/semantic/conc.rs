//! Concurrency rules: what the compiler cannot say about the
//! scoped-thread engine.
//!
//! The workspace's determinism contract (DESIGN.md §8) demands that
//! thread count is a latency knob, never a numerics knob. Data-race
//! freedom itself is rustc's job: every numeric crate forbids
//! `unsafe_code` (`eta-tensor` denies it outside `mod simd`), so two
//! spawned closures sharing a `&mut`, or one writing what another
//! reads, is a borrow-check error (`shims/rayon` carries the
//! `compile_fail` doctests). What borrowck does not see is *order*,
//! and the primitives that would let safe code share state anyway:
//!
//! * **C2 — deterministic merge order.** Cross-thread results must
//!   flow into floating-point state only through the post-join
//!   sequential loop. Flagged: completion-order channels
//!   (`mpsc`/`recv`) in numeric crates, atomics bit-cast or converted
//!   into floats (CAS float accumulation), and unordered float
//!   reductions (`sum`/`fold`/`reduce`/`product` over parallel or
//!   hash-ordered sources — the successor of the retired token rule
//!   D3).
//!
//! * **C3 — synchronization discipline.** `Mutex`/`RwLock`/
//!   `Atomic*`/`Condvar`/`Barrier`/`mpsc` are banned in the numeric
//!   crates: a lock makes scheduling observable, and anything
//!   scheduling-observable eventually leaks into numerics. It is also
//!   what makes "borrowck ⇒ race-free" true — interior mutability
//!   behind a `Sync` wrapper is the one way safe code shares a
//!   mutable place. Telemetry plumbing is waived with a `// SYNC:`
//!   comment on the preceding lines stating why the primitive cannot
//!   reach numeric state (mirroring A1's `// SAFETY:` discipline).

use std::collections::BTreeSet;

use crate::ast::{self, Block, Expr, ExprKind, Stmt};
use crate::lexer::{Tok, TokKind};
use crate::model::{walk_block_exprs, FnInfo, Workspace};
use crate::rules::{Finding, ScopeKind, NUMERIC_CRATES};

/// Entry point: C2 over every non-test `Lib` function of the numeric
/// crates, C3 over their raw sources.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.fns {
        if let (true, Some(body)) = (f.is_numeric_lib(), &f.body) {
            c2_sequential(f, body, &mut out);
        }
    }
    c3_sync_discipline(ws, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out.dedup();
    out
}

/// Descends a method chain to the root place expression.
fn chain_root(e: &Expr) -> Option<&Expr> {
    match &e.kind {
        ExprKind::MethodCall { recv, .. } => chain_root(recv),
        ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => chain_root(expr),
        ExprKind::Path(_) | ExprKind::Field { .. } | ExprKind::Index { .. } => Some(e),
        _ => None,
    }
}

/// Root binding name of a place (`x` for `x.field[i]`).
fn place_root(e: &Expr) -> Option<String> {
    match &ast::peel(e).kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { recv, .. } | ExprKind::Index { recv, .. } => place_root(recv),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// C2 — sequential-merge discipline (per numeric Lib function)
// ---------------------------------------------------------------------------

/// Iterator adapters that preserve "came from the same source".
const C2_ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "cloned",
    "copied",
    "zip",
    "enumerate",
    "rev",
    "inspect",
    "take",
    "skip",
    "step_by",
    "chain",
    "by_ref",
];
/// Parallel-iterator constructors: reduction order follows scheduling.
const C2_PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];
const C2_REDUCERS: &[&str] = &["sum", "fold", "reduce", "product"];

fn c2_sequential(f: &FnInfo, body: &Block, out: &mut Vec<Finding>) {
    let mut has_cas = None;
    let mut has_bits = false;
    walk_block_exprs(body, &mut |e| match &e.kind {
        // (a) unordered reductions — the semantic successor of token
        // rule D3, with real receiver-chain peeling.
        ExprKind::MethodCall { recv, method, .. } if C2_REDUCERS.contains(&method.as_str()) => {
            if let Some(src) = unordered_source(recv, f) {
                out.push(Finding {
                    rule: "C2".into(),
                    file: f.file.clone(),
                    line: e.line,
                    message: format!(
                        ".{method}() over a {src} source: float reduction order would vary \
                         across runs/thread counts; route through the fixed-order \
                         parallel::tree_reduce helpers instead"
                    ),
                });
            }
        }
        // (b) completion-order channels; (c') floats decoded from
        // atomic bits.
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let leaf = segs.last().map(String::as_str);
                if (leaf == Some("channel") || leaf == Some("sync_channel"))
                    || segs.iter().any(|s| s == "mpsc")
                {
                    out.push(Finding {
                        rule: "C2".into(),
                        file: f.file.clone(),
                        line: e.line,
                        message: "cross-thread channel in a numeric crate: message arrival \
                                  follows thread completion order; collect per-shard results \
                                  into indexed slots and merge them in a post-join sequential \
                                  loop instead"
                            .into(),
                    });
                } else if segs.len() == 2
                    && (segs[0] == "f32" || segs[0] == "f64")
                    && segs[1] == "from_bits"
                    && args.iter().any(contains_atomic_read)
                {
                    out.push(Finding {
                        rule: "C2".into(),
                        file: f.file.clone(),
                        line: e.line,
                        message: "float decoded from an atomic's bits: CAS float \
                                  accumulation commits in scheduling order; accumulate \
                                  per-shard and merge sequentially after the join"
                            .into(),
                    });
                }
            }
        }
        ExprKind::MethodCall { method, .. }
            if matches!(method.as_str(), "recv" | "try_recv" | "recv_timeout") =>
        {
            out.push(Finding {
                rule: "C2".into(),
                file: f.file.clone(),
                line: e.line,
                message: format!(
                    ".{method}() in a numeric crate receives in thread completion order; \
                     merge shard results by slot index in the post-join sequential loop \
                     instead"
                ),
            });
        }
        // (c) atomics feeding floats.
        ExprKind::Cast { expr, ty_text } => {
            let floaty = ty_text.contains("f32") || ty_text.contains("f64");
            if floaty && is_atomic_read(expr) {
                out.push(Finding {
                    rule: "C2".into(),
                    file: f.file.clone(),
                    line: e.line,
                    message: "atomic value cast to a float: atomically-accumulated floats \
                              commit in scheduling order; accumulate per-shard and merge \
                              sequentially after the join"
                        .into(),
                });
            }
        }
        _ => {
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                if method.starts_with("compare_exchange") || method == "fetch_update" {
                    has_cas = has_cas.or(Some(e.line));
                }
                if method == "to_bits" || method == "from_bits" {
                    has_bits = true;
                }
            }
        }
    });
    if let (Some(line), true) = (has_cas, has_bits) {
        out.push(Finding {
            rule: "C2".into(),
            file: f.file.clone(),
            line,
            message: "compare-exchange over bit-cast floats is an atomic float accumulator: \
                      commit order follows thread scheduling; accumulate per-shard and merge \
                      sequentially after the join"
                .into(),
        });
    }
}

/// If the reduction receiver chain bottoms out in a parallel iterator
/// or a hash-ordered container, names the offending source.
fn unordered_source(recv: &Expr, f: &FnInfo) -> Option<String> {
    let mut e = recv;
    loop {
        match &e.kind {
            ExprKind::MethodCall { recv, method, .. } => {
                if C2_PAR_SOURCES.contains(&method.as_str()) {
                    return Some(method.clone());
                }
                if matches!(
                    method.as_str(),
                    "values" | "keys" | "iter" | "into_iter" | "drain"
                ) {
                    if let Some(root) = chain_root(recv).and_then(place_root) {
                        if is_hash_typed(&root, f) {
                            return Some(format!("HashMap/HashSet (`{root}`)"));
                        }
                    }
                }
                if C2_ADAPTERS.contains(&method.as_str())
                    || matches!(method.as_str(), "values" | "keys" | "iter" | "into_iter")
                {
                    e = recv;
                    continue;
                }
                return None;
            }
            ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => {
                e = expr;
                continue;
            }
            _ => return None,
        }
    }
}

/// Does `name` have a visibly hash-ordered type in this function
/// (param annotation or local `let`)?
fn is_hash_typed(name: &str, f: &FnInfo) -> bool {
    if f.params.iter().any(|p| {
        p.name.as_deref() == Some(name)
            && (p.ty_text.contains("HashMap") || p.ty_text.contains("HashSet"))
    }) {
        return true;
    }
    let Some(body) = &f.body else { return false };
    let mut hit = false;
    let mut check = |b: &Block| {
        for st in &b.stmts {
            if let Stmt::Let {
                names,
                ty_text,
                init,
                ..
            } = st
            {
                if names.iter().any(|n| n == name) {
                    let init_text = init.as_ref().map(ast::expr_text).unwrap_or_default();
                    if ty_text.contains("Hash") || init_text.contains("Hash") {
                        hit = true;
                    }
                }
            }
        }
    };
    check(body);
    walk_block_exprs(body, &mut |e| match &e.kind {
        ExprKind::Block(b)
        | ExprKind::Unsafe(b)
        | ExprKind::If { then: b, .. }
        | ExprKind::While { body: b, .. }
        | ExprKind::ForLoop { body: b, .. }
        | ExprKind::Loop { body: b } => check(b),
        _ => {}
    });
    hit
}

fn is_atomic_read(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::MethodCall { method, .. } => {
            method == "load" || method.starts_with("fetch_") || method == "swap"
        }
        ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => is_atomic_read(expr),
        _ => false,
    }
}

fn contains_atomic_read(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if is_atomic_read(x) {
            found = true;
        }
    });
    found
}

// ---------------------------------------------------------------------------
// C3 — synchronization discipline in numeric crates
// ---------------------------------------------------------------------------

/// Primitive type names whose presence in a numeric crate needs a
/// `// SYNC:` justification.
const C3_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

fn c3_sync_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != ScopeKind::Lib || !NUMERIC_CRATES.contains(&file.crate_key.as_str()) {
            continue;
        }
        let toks = crate::lexer::lex(&file.src);
        let sync_lines: Vec<u32> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment && t.text.contains("SYNC:"))
            .map(|t| t.line)
            .collect();
        let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = crate::rules::cfg_test_mask(&code);
        let mut flagged: BTreeSet<u32> = BTreeSet::new();
        for (i, t) in code.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) || t.kind != TokKind::Ident {
                continue;
            }
            let hit = C3_PRIMITIVES.contains(&t.text.as_str())
                || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len());
            if !hit || in_use_stmt(&code, i) {
                continue;
            }
            let covered = sync_lines
                .iter()
                .any(|&l| l >= t.line.saturating_sub(3) && l <= t.line);
            if covered || !flagged.insert(t.line) {
                continue;
            }
            out.push(Finding {
                rule: "C3".into(),
                file: file.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}` in a numeric crate: locks and atomics make thread scheduling \
                     observable, which the determinism contract forbids on numeric paths; \
                     justify telemetry plumbing with a `// SYNC:` comment on the preceding \
                     lines or move the state behind the telemetry crate",
                    t.text
                ),
            });
        }
    }
}

/// Is the code token at `i` part of a `use …;` declaration? The ban
/// binds usage sites; the justification comment belongs where the
/// primitive is actually employed, not at the import.
fn in_use_stmt(code: &[&Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('}') {
            break;
        }
        if t.is_punct('{') {
            // `use a::{B, C};` groups idents behind a use-tree brace;
            // only a block-opening `{` (not preceded by `::`) ends the
            // statement scan.
            let tree = j >= 3 && code[j - 2].is_punct(':') && code[j - 3].is_punct(':');
            if !tree {
                break;
            }
        }
        j -= 1;
    }
    let mut k = j;
    while matches!(code.get(k), Some(t) if t.is_ident("pub") || t.is_punct('(') || t.is_punct(')') || t.is_ident("crate") || t.is_ident("super"))
    {
        k += 1;
    }
    matches!(code.get(k), Some(t) if t.is_ident("use"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conc_findings(src: &str) -> Vec<Finding> {
        let sources = vec![("crates/core/src/fix.rs".to_string(), src.to_string())];
        let ws = Workspace::build(&sources, None);
        run(&ws)
    }

    #[test]
    fn channel_recv_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad() -> f32 {
    let (tx, rx) = std::sync::mpsc::channel();
    drop(tx);
    let mut total = 0.0f32;
    while let Ok(v) = rx.recv() {
        total += v;
    }
    total
}
"#,
        );
        assert!(
            findings.iter().any(|f| f.rule == "C2" && f.line == 3),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "C2" && f.message.contains("completion order")),
            "{findings:?}"
        );
    }

    #[test]
    fn parallel_reduction_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad(xs: &[f32]) -> f32 {
    xs.par_iter().map(|x| x * 2.0).sum()
}
"#,
        );
        let c2: Vec<_> = findings.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 1, "{findings:?}");
        assert!(c2[0].message.contains("par_iter"), "{}", c2[0].message);
    }

    #[test]
    fn hash_map_reduction_is_c2_and_tree_reduce_is_not() {
        let findings = conc_findings(
            r#"
pub fn bad(weights: &std::collections::HashMap<u32, f32>) -> f32 {
    weights.values().sum()
}

pub fn good(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}
"#,
        );
        let c2: Vec<_> = findings.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 1, "{findings:?}");
        assert_eq!(c2[0].line, 3);
    }

    #[test]
    fn atomic_to_float_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad(total_bits: &std::sync::atomic::AtomicU32) -> f32 {
    f32::from_bits(total_bits.load(std::sync::atomic::Ordering::Relaxed))
}
"#,
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "C2" && f.message.contains("atomic")),
            "{findings:?}"
        );
    }

    #[test]
    fn mutex_in_numeric_crate_is_c3_unless_justified() {
        let findings = conc_findings(
            r#"
use std::sync::Mutex;

pub struct Bad {
    state: Mutex<Vec<f32>>,
}

pub struct Ok2 {
    // SYNC: telemetry counter mirror; never read by numeric paths.
    counts: Mutex<Vec<u64>>,
}
"#,
        );
        let c3: Vec<_> = findings.iter().filter(|f| f.rule == "C3").collect();
        assert_eq!(c3.len(), 1, "{findings:?}");
        assert_eq!(c3[0].line, 5);
        assert!(c3[0].message.contains("Mutex"));
    }
}
