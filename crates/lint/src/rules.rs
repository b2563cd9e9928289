//! The eta-lint rules, evaluated over lexed token streams.
//!
//! | rule | contract                                                        |
//! |------|-----------------------------------------------------------------|
//! | A1   | every `unsafe` carries a nearby `// SAFETY:` comment            |
//! | A2   | an `unsafe` call into a `#[target_feature]` fn or an intrinsic, |
//! |      | made outside a `#[target_feature]` fn, sits in the then-branch  |
//! |      | of an `if is_x86_feature_detected!(…)`                          |
//! | T1   | telemetry key literals must come from the central registry      |
//! | S3   | registered telemetry keys are emitted somewhere (a warning)     |
//!
//! The rest of the determinism contract (DESIGN.md §8) has stock lints
//! and is configured in the root `clippy.toml`; DESIGN.md §9 maps every
//! rule to the check that holds it.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// One diagnostic. `file` is workspace-root-relative with `/`
/// separators; `line` is 1-indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScopeKind {
    /// `crates/<n>/src/**` or root `src/**`.
    Lib,
    /// `crates/<n>/src/bin/**` — harness binaries.
    Bin,
    /// `tests/`, `benches/`, `examples/`.
    Test,
    /// `shims/**` — emulations of third-party crates: A1 and A2 only.
    Shim,
}

#[derive(Debug, Clone)]
pub(crate) struct FileScope {
    crate_name: String,
    kind: ScopeKind,
}

/// Telemetry itself defines the key registry; T1 checks everyone else.
const T1_EXEMPT_CRATES: &[&str] = &["telemetry"];

/// Telemetry registry/snapshot methods whose first argument is a
/// metric key string.
const T1_METHODS: &[&str] = &[
    "incr",
    "incr_with",
    "gauge",
    "gauge_with",
    "observe",
    "observe_in",
    "counter_total",
    "histogram",
];

/// Classifies a root-relative path. Returns `None` for files the
/// lint has no opinion on (nothing outside these trees holds Rust
/// source in this workspace).
pub(crate) fn classify(rel_path: &str) -> Option<FileScope> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, kind) = match parts.as_slice() {
        ["shims", name, ..] => (format!("shim:{name}"), ScopeKind::Shim),
        ["crates", name, "src", "bin", ..] => (name.to_string(), ScopeKind::Bin),
        ["crates", name, "src", ..] => (name.to_string(), ScopeKind::Lib),
        ["crates", name, "tests" | "benches" | "examples", ..] => {
            (name.to_string(), ScopeKind::Test)
        }
        ["src", ..] => ("root".to_string(), ScopeKind::Lib),
        ["tests" | "benches" | "examples", ..] => ("root".to_string(), ScopeKind::Test),
        _ => return None,
    };
    Some(FileScope { crate_name, kind })
}

/// Lints one file's source with the per-file rules (A1, A2, T1).
/// `registry` holds every key string defined in
/// `crates/telemetry/src/keys.rs`.
pub fn lint_source(rel_path: &str, src: &str, registry: &BTreeSet<String>) -> Vec<Finding> {
    let Some(scope) = classify(rel_path) else {
        return Vec::new();
    };
    let toks = crate::lexer::lex(src);
    let mut findings = Vec::new();

    // A1 runs on the full stream (it needs the comments).
    rule_a1(rel_path, &toks, &mut findings);

    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    rule_a2(rel_path, &code, &cfg_test_mask(&code), &mut findings);
    if scope.kind != ScopeKind::Shim && !T1_EXEMPT_CRATES.contains(&scope.crate_name.as_str()) {
        rule_t1(rel_path, &code, registry, &mut findings);
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

/// Marks code-token indices covered by a `#[cfg(test)]` item (almost
/// always `mod tests { … }`). The attribute's tokens, any stacked
/// attributes after it, and the item body through its matching brace
/// (or terminating `;`) are all masked.
fn cfg_test_mask(code: &[&Tok]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let Some(attr_end) = attr_at(code, i) else {
            i += 1;
            continue;
        };
        let attr = &code[i..=attr_end];
        if !(attr.iter().any(|t| t.is_ident("cfg")) && attr.iter().any(|t| t.is_ident("test"))) {
            i = attr_end + 1;
            continue;
        }
        let mut end = attr_end + 1;
        while let Some(e) = attr_at(code, end) {
            end = e + 1;
        }
        while let Some(t) = code.get(end) {
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                end = matching_close(code, end).unwrap_or(code.len() - 1);
                break;
            }
            end += 1;
        }
        let end = end.min(code.len() - 1);
        mask[i..=end].fill(true);
        i = end + 1;
    }
    mask
}

/// End index of the `#[…]` attribute starting at `i`, if one does.
fn attr_at(code: &[&Tok], i: usize) -> Option<usize> {
    let is = |j: usize, c: char| code.get(j).is_some_and(|t| t.is_punct(c));
    if is(i, '#') && is(i + 1, '[') {
        matching_close(code, i + 1)
    } else {
        None
    }
}

/// Index of the token closing the `{`/`[`/`(` group opened at `open_idx`.
fn matching_close(code: &[&Tok], open_idx: usize) -> Option<usize> {
    let open = code.get(open_idx)?.text.chars().next()?;
    let close = match open {
        '{' => '}',
        '[' => ']',
        '(' => ')',
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Token at `i - back`, if any.
fn before<'a>(code: &[&'a Tok], i: usize, back: usize) -> Option<&'a Tok> {
    i.checked_sub(back).and_then(|j| code.get(j)).copied()
}

fn is_block_edge(t: &Tok) -> bool {
    t.is_punct(';') || t.is_punct('{') || t.is_punct('}')
}

// ---------------------------------------------------------------------------
// A1 — unsafe blocks need `// SAFETY:` comments
// ---------------------------------------------------------------------------

fn rule_a1(file: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let safety_lines: Vec<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect();
    for t in toks {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            let covered = safety_lines
                .iter()
                .any(|&l| l >= t.line.saturating_sub(3) && l <= t.line);
            if !covered {
                out.push(Finding {
                    rule: "A1".into(),
                    file: file.into(),
                    line: t.line,
                    message: "`unsafe` without a `// SAFETY:` comment on the preceding \
                              lines documenting the invariant that makes it sound"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A2 — feature-guarded entry into `#[target_feature]` code
// ---------------------------------------------------------------------------
//
// Inside a `#[target_feature]` fn, rustc lets same-feature calls and
// intrinsics through without `unsafe`; outside one it demands an
// `unsafe` block, and that block is sound only if the CPU was asked
// first. The rule checks the asking: the block must sit in the
// then-branch of an `if` whose condition calls `is_x86_feature_detected!`.

/// A `fn` item's name, body brace span, and whether it is
/// `#[target_feature]`.
struct FnSpan<'a> {
    name: &'a str,
    open: usize,
    close: usize,
    target_feature: bool,
}

fn fn_spans<'a>(code: &[&'a Tok]) -> Vec<FnSpan<'a>> {
    let mut spans = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue; // a `fn(…)` pointer type
        };
        // The item head (attributes, visibility, qualifiers) runs back
        // to the previous statement or block edge.
        let head_start = code[..i]
            .iter()
            .rposition(|t| is_block_edge(t))
            .map_or(0, |j| j + 1);
        let target_feature = code[head_start..i]
            .iter()
            .any(|t| t.is_ident("target_feature"));
        // The body is the first `{` (or a declaration's `;`) outside the
        // signature's brackets: `[f32; 8]` is a type, not an edge.
        let mut depth = 0i32;
        let Some(open) = (i..code.len()).find(|&j| {
            let t = code[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            }
            depth == 0 && is_block_edge(t)
        }) else {
            continue;
        };
        if !code[open].is_punct('{') {
            continue; // a bodiless declaration
        }
        if let Some(close) = matching_close(code, open) {
            spans.push(FnSpan {
                name: &name.text,
                open,
                close,
                target_feature,
            });
        }
    }
    spans
}

/// Whether the `{` at `open` starts the then-branch of an `if` whose
/// condition mentions `is_x86_feature_detected`.
fn opens_detect_guard(code: &[&Tok], open: usize) -> bool {
    let mut depth = 0i32;
    for j in (0..open).rev() {
        let t = code[j];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("if") {
            return code[j..open]
                .iter()
                .any(|t| t.is_ident("is_x86_feature_detected"));
        } else if depth == 0 && is_block_edge(t) {
            return false;
        }
    }
    false
}

/// Whether any block enclosing index `i` is a detect-guarded then-branch.
fn detect_guarded(code: &[&Tok], i: usize) -> bool {
    let mut depth = 0usize;
    for j in (0..i).rev() {
        if code[j].is_punct('}') {
            depth += 1;
        } else if code[j].is_punct('{') {
            if depth == 0 && opens_detect_guard(code, j) {
                return true;
            }
            depth = depth.saturating_sub(1);
        }
    }
    false
}

fn rule_a2(file: &str, code: &[&Tok], mask: &[bool], out: &mut Vec<Finding>) {
    let fns = fn_spans(code);
    let tf_names: BTreeSet<&str> = fns
        .iter()
        .filter(|f| f.target_feature)
        .map(|f| f.name)
        .collect();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("unsafe") || mask[i] || !code.get(i + 1).is_some_and(|n| n.is_punct('{')) {
            continue;
        }
        let Some(close) = matching_close(code, i + 1) else {
            continue;
        };
        let callee = (i + 2..close).map(|k| (k, code[k])).find(|&(k, c)| {
            c.kind == TokKind::Ident
                && (tf_names.contains(c.text.as_str()) || c.text.starts_with("_mm"))
                && code
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
                && !before(code, k, 1).is_some_and(|p| p.is_punct('.'))
        });
        let Some((_, callee)) = callee else {
            continue;
        };
        let in_tf_fn = fns
            .iter()
            .filter(|f| f.open < i && i < f.close)
            .max_by_key(|f| f.open)
            .is_some_and(|f| f.target_feature);
        if in_tf_fn || detect_guarded(code, i) {
            continue;
        }
        out.push(Finding {
            rule: "A2".into(),
            file: file.into(),
            line: callee.line,
            message: format!(
                "`{}` entered outside a #[target_feature] fn without an \
                 `if is_x86_feature_detected!(…)` guard",
                callee.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// T1 — telemetry keys must come from the central registry
// ---------------------------------------------------------------------------

/// Index of the first argument of a telemetry emit call whose method
/// name sits at `i` (`.gauge(…)`), if `i` is one.
fn emit_arg(code: &[&Tok], i: usize) -> Option<usize> {
    let t = code.get(i)?;
    let is_emit = t.kind == TokKind::Ident
        && T1_METHODS.contains(&t.text.as_str())
        && before(code, i, 1)?.is_punct('.')
        && code.get(i + 1)?.is_punct('(');
    (is_emit && i + 2 < code.len()).then_some(i + 2)
}

fn rule_t1(file: &str, code: &[&Tok], registry: &BTreeSet<String>, out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let Some(arg) = emit_arg(code, i).map(|a| code[a]) else {
            continue;
        };
        if arg.kind != TokKind::Str {
            continue; // key comes from a const or variable — already centralized
        }
        if !registry.contains(&arg.text) {
            out.push(Finding {
                rule: "T1".into(),
                file: file.into(),
                line: arg.line,
                message: format!(
                    "telemetry key \"{}\" is not defined in the crates/telemetry key \
                     registry (eta_telemetry::keys); use the registry const so typos \
                     cannot silently fork a metric",
                    arg.text
                ),
            });
        }
    }
}

/// Extracts every `const NAME: &str = "…";` value from the key
/// registry source (`crates/telemetry/src/keys.rs`). String literals
/// inside `ALL`-style arrays count too, which is harmless: the set is
/// only used for membership tests.
pub fn registry_keys(keys_rs_src: &str) -> BTreeSet<String> {
    crate::lexer::lex(keys_rs_src)
        .into_iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text)
        .collect()
}

// ---------------------------------------------------------------------------
// S3 — telemetry key liveness (advisory)
// ---------------------------------------------------------------------------

/// Warns on every `const NAME: &str = "key";` of the registry at
/// `keys_file` that no library or binary code outside `#[cfg(test)]`
/// emits, by literal or by a path ending in `NAME`. `sources` holds
/// `(root-relative path, source)` pairs.
pub fn dead_keys(keys_file: &str, keys_src: &str, sources: &[(String, String)]) -> Vec<Finding> {
    let mut emitted = BTreeSet::new();
    for (rel, src) in sources {
        if !classify(rel).is_some_and(|s| matches!(s.kind, ScopeKind::Lib | ScopeKind::Bin)) {
            continue;
        }
        let toks = crate::lexer::lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = cfg_test_mask(&code);
        for i in (0..code.len()).filter(|&i| !mask[i]) {
            let Some(mut a) = emit_arg(&code, i) else {
                continue;
            };
            // A literal, or the last segment of a `keys::NAME` path.
            while code.get(a + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(a + 3).is_some_and(|t| t.kind == TokKind::Ident)
            {
                a += 3;
            }
            emitted.insert(code[a].text.clone());
        }
    }

    let toks = crate::lexer::lex(keys_src);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut warnings = Vec::new();
    for w in code.windows(8) {
        let [kw, name, colon, _, _, eq, key, _] = w else {
            continue;
        };
        let shape = kw.is_ident("const")
            && name.kind == TokKind::Ident
            && colon.is_punct(':')
            && eq.is_punct('=')
            && key.kind == TokKind::Str;
        if !shape || emitted.contains(&key.text) || emitted.contains(&name.text) {
            continue;
        }
        warnings.push(Finding {
            rule: "S3".into(),
            file: keys_file.into(),
            line: name.line,
            message: format!(
                "registered telemetry key \"{}\" (const {}) is never emitted outside tests",
                key.text, name.text
            ),
        });
    }
    warnings
}
