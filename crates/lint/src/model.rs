//! Workspace semantic model: every parsed file, a function table with
//! scope/visibility/test classification, and a cross-crate call graph.
//!
//! Resolution is deliberately name-based and over-approximate — the
//! analyzer has no trait solver — but it is *scoped*: a call resolves
//! only into the caller's own crate and the workspace crates it
//! depends on (read from the `Cargo.toml` manifests), and `self.m()`
//! calls prefer methods on the caller's own `impl` type. Calls that
//! resolve to nothing are std/shim calls and produce no edge, which
//! is what keeps panic-reachability chains meaningful.

use crate::ast::{self, Block, Expr, ExprKind, Item, ItemKind};
use crate::parser;
use crate::rules::{classify, ScopeKind, NUMERIC_CRATES};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One parsed source file plus its lint scope.
pub struct SourceFile {
    pub rel: String,
    pub crate_key: String,
    pub kind: ScopeKind,
    pub ast: ast::File,
    /// Raw source text, kept for rules that must see comments (the
    /// parser strips them): A2's `// SAFETY:` requirement.
    pub src: String,
}

/// A function (free fn, method, or associated fn) in the workspace.
pub struct FnInfo {
    pub id: usize,
    pub file: String,
    pub crate_key: String,
    pub kind: ScopeKind,
    pub line: u32,
    pub name: String,
    /// `impl` type the fn is defined on, if any.
    pub self_ty: Option<String>,
    pub is_pub: bool,
    /// Inside `#[cfg(test)]` / `#[test]` / a tests directory.
    pub in_test: bool,
    pub has_self: bool,
    pub params: Vec<ast::Param>,
    pub ret_text: String,
    /// Raw interior text of each `#[…]` attribute on the fn item.
    pub attrs: Vec<String>,
    pub body: Option<Block>,
    /// Raw calls found in the body, in source order.
    pub calls: Vec<CallRef>,
}

impl FnInfo {
    /// Non-test library code of a numeric crate — the scope S1, H1 and
    /// C2 bind.
    pub fn is_numeric_lib(&self) -> bool {
        !self.in_test
            && self.kind == ScopeKind::Lib
            && NUMERIC_CRATES.contains(&self.crate_key.as_str())
    }

    /// `core::Trainer::train`-style display name for diagnostics.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{}::{}::{}", self.crate_key, ty, self.name),
            None => format!("{}::{}", self.crate_key, self.name),
        }
    }
}

/// A call site (or function mention) before resolution.
#[derive(Debug, Clone)]
pub enum CallRef {
    /// `a::b::f(…)`, or `a::b::f` named as a value — full path segments.
    Path(Vec<String>),
    /// `recv.m(…)` — method name plus whether the receiver is `self`.
    Method { name: String, on_self: bool },
}

pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnInfo>,
    /// fn name → fn ids bearing that name.
    name_index: BTreeMap<String, Vec<usize>>,
    /// lib identifier (`eta_lstm_core`) → crate key (`core`).
    lib_idents: BTreeMap<String, String>,
    /// crate key → workspace crate keys it may call into (incl. itself).
    crate_scope: BTreeMap<String, BTreeSet<String>>,
    /// Resolved call-graph edges: caller id → callee ids (sorted).
    pub callees: Vec<Vec<usize>>,
}

impl Workspace {
    /// Builds the model from `(root-relative path, source)` pairs.
    /// When `root` is given, crate dependency scopes come from the
    /// `Cargo.toml` manifests; without it (fixture tests) every crate
    /// may call every other.
    pub fn build(sources: &[(String, String)], root: Option<&Path>) -> Workspace {
        let mut files = Vec::new();
        for (rel, src) in sources {
            let Some(scope) = classify(rel) else { continue };
            files.push(SourceFile {
                rel: rel.clone(),
                crate_key: scope.crate_name,
                kind: scope.kind,
                ast: parser::parse(src),
                src: src.clone(),
            });
        }

        let mut fns = Vec::new();
        for file in &files {
            collect_fns(file, &mut fns);
        }

        let mut name_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for f in &fns {
            name_index.entry(f.name.clone()).or_default().push(f.id);
        }

        let crate_keys: BTreeSet<String> = files.iter().map(|f| f.crate_key.clone()).collect();
        let (lib_idents, crate_scope) = match root {
            Some(root) => manifest_scopes(root, &crate_keys),
            None => fixture_scopes(&crate_keys),
        };

        let mut ws = Workspace {
            files,
            fns,
            name_index,
            lib_idents,
            crate_scope,
            callees: Vec::new(),
        };
        ws.callees = ws
            .fns
            .iter()
            .map(|f| {
                let mut out: Vec<usize> =
                    f.calls.iter().flat_map(|c| ws.resolve_call(f, c)).collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        ws
    }

    /// Crates `crate_key` may resolve calls into (itself included).
    fn in_scope(&self, crate_key: &str) -> BTreeSet<String> {
        self.crate_scope
            .get(crate_key)
            .cloned()
            .unwrap_or_else(|| std::iter::once(crate_key.to_string()).collect())
    }

    fn resolve_call(&self, caller: &FnInfo, call: &CallRef) -> Vec<usize> {
        let scope = self.in_scope(&caller.crate_key);
        let candidates = |name: &str| -> Vec<&FnInfo> {
            self.name_index
                .get(name)
                .map(|ids| ids.iter().map(|&i| &self.fns[i]).collect())
                .unwrap_or_default()
        };
        match call {
            CallRef::Method { name, on_self } => {
                let all: Vec<&FnInfo> = candidates(name)
                    .into_iter()
                    .filter(|f| f.has_self && scope.contains(&f.crate_key) && !f.in_test)
                    .collect();
                // `self.m()` resolves on the caller's own type when
                // that type defines `m`; this removes almost all
                // std-method name collisions.
                if *on_self {
                    if let Some(ty) = &caller.self_ty {
                        let own: Vec<usize> = all
                            .iter()
                            .filter(|f| f.self_ty.as_deref() == Some(ty))
                            .map(|f| f.id)
                            .collect();
                        if !own.is_empty() {
                            return own;
                        }
                        return Vec::new();
                    }
                }
                all.into_iter().map(|f| f.id).collect()
            }
            CallRef::Path(segs) => {
                let Some(fname) = segs.last() else {
                    return Vec::new();
                };
                let cands = candidates(fname);
                if segs.len() == 1 {
                    // Bare `f(…)`: a free fn visible from the caller's
                    // crate (same crate first, then `use`d deps).
                    let same: Vec<usize> = cands
                        .iter()
                        .filter(|f| {
                            !f.has_self
                                && f.self_ty.is_none()
                                && f.crate_key == caller.crate_key
                                && !f.in_test
                        })
                        .map(|f| f.id)
                        .collect();
                    if !same.is_empty() {
                        return same;
                    }
                    return cands
                        .iter()
                        .filter(|f| {
                            !f.has_self
                                && f.self_ty.is_none()
                                && scope.contains(&f.crate_key)
                                && !f.in_test
                        })
                        .map(|f| f.id)
                        .collect();
                }
                let qual = &segs[segs.len() - 2];
                // `eta_tensor::…::f` / `crate::…::f` → that crate.
                let target_crate = if qual == "crate" || qual == "self" || qual == "super" {
                    Some(caller.crate_key.clone())
                } else {
                    self.lib_idents.get(qual).cloned().or_else(|| {
                        segs.first()
                            .and_then(|s0| self.lib_idents.get(s0).cloned())
                            .or_else(|| {
                                if segs.first().is_some_and(|s| s == "crate") {
                                    Some(caller.crate_key.clone())
                                } else {
                                    None
                                }
                            })
                    })
                };
                if let Some(ck) = target_crate {
                    if qual != segs.first().unwrap_or(&String::new())
                        && qual.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    {
                        // `crate::module::Type::f` — associated fn.
                        return cands
                            .iter()
                            .filter(|f| {
                                f.self_ty.as_deref() == Some(qual.as_str())
                                    && f.crate_key == ck
                                    && !f.in_test
                            })
                            .map(|f| f.id)
                            .collect();
                    }
                    return cands
                        .iter()
                        .filter(|f| f.crate_key == ck && !f.in_test)
                        .map(|f| f.id)
                        .collect();
                }
                // `Type::f(…)` — associated fn / method by type name.
                if qual.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    return cands
                        .iter()
                        .filter(|f| {
                            f.self_ty.as_deref() == Some(qual.as_str())
                                && scope.contains(&f.crate_key)
                                && !f.in_test
                        })
                        .map(|f| f.id)
                        .collect();
                }
                // `module::f(…)` within the caller's crate.
                cands
                    .iter()
                    .filter(|f| f.crate_key == caller.crate_key && !f.in_test)
                    .map(|f| f.id)
                    .collect()
            }
        }
    }
}

/// Walks a file's items and appends every fn to `out`.
fn collect_fns(file: &SourceFile, out: &mut Vec<FnInfo>) {
    // walk_items gives no ancestry, so track test/impl context with an
    // explicit recursion instead.
    fn rec(
        items: &[Item],
        file: &SourceFile,
        self_ty: Option<&str>,
        in_test: bool,
        out: &mut Vec<FnInfo>,
    ) {
        for item in items {
            let item_test = in_test || item.is_cfg_test() || item.is_test_fn();
            match &item.kind {
                ItemKind::Fn(def) => {
                    let calls = def.body.as_ref().map(collect_calls).unwrap_or_default();
                    out.push(FnInfo {
                        id: out.len(),
                        file: file.rel.clone(),
                        crate_key: file.crate_key.clone(),
                        kind: file.kind,
                        line: item.line,
                        name: item.name.clone(),
                        self_ty: self_ty.map(str::to_string),
                        is_pub: item.is_pub,
                        in_test: item_test || file.kind == ScopeKind::Test,
                        has_self: def.has_self,
                        params: def.params.clone(),
                        ret_text: def.ret_text.clone(),
                        attrs: item.attrs.clone(),
                        body: def.body.clone(),
                        calls,
                    });
                }
                ItemKind::Mod { items, .. } => rec(items, file, None, item_test, out),
                ItemKind::Impl {
                    self_ty: ty, items, ..
                } => rec(items, file, Some(ty), item_test, out),
                ItemKind::Trait { items } => rec(items, file, self_ty, item_test, out),
                _ => {}
            }
        }
    }
    rec(&file.ast.items, file, None, false, out);
}

/// Extracts raw call references from a fn body, in source order. Every
/// path expression counts, not only a callee: a function passed by
/// value (`pack_par(…, fill_nt_panel)`, a `let` rhs, a struct field) is
/// called by whoever receives it, so the mention is an over-approximate
/// edge. Paths that name no workspace function (locals, constants,
/// enum variants) resolve to nothing.
fn collect_calls(body: &Block) -> Vec<CallRef> {
    let mut calls = Vec::new();
    walk_block_exprs(body, &mut |e| match &e.kind {
        ExprKind::Path(segs) => calls.push(CallRef::Path(segs.clone())),
        ExprKind::MethodCall { recv, method, .. } => {
            let on_self = matches!(
                &ast::peel(recv).kind,
                ExprKind::Path(segs) if segs.len() == 1 && segs[0] == "self"
            );
            calls.push(CallRef::Method {
                name: method.clone(),
                on_self,
            });
        }
        _ => {}
    });
    calls
}

/// Visits every expression in a block, including nested blocks but
/// not nested item bodies (those are separate `FnInfo`s).
pub fn walk_block_exprs<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            ast::Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
            }
            ast::Stmt::Expr { expr, .. } => expr.walk(f),
            ast::Stmt::Item(_) => {}
        }
    }
}

/// Reads every workspace/shim manifest to map lib identifiers to
/// crate keys and build each crate's resolution scope.
fn manifest_scopes(
    root: &Path,
    crate_keys: &BTreeSet<String>,
) -> (BTreeMap<String, String>, BTreeMap<String, BTreeSet<String>>) {
    let mut lib_idents = BTreeMap::new();
    let mut manifests: BTreeMap<String, String> = BTreeMap::new();
    let mut package_names: BTreeMap<String, String> = BTreeMap::new(); // pkg name -> crate key

    for key in crate_keys {
        let dir = if let Some(shim) = key.strip_prefix("shim:") {
            root.join("shims").join(shim)
        } else if key == "root" {
            root.to_path_buf()
        } else {
            root.join("crates").join(key)
        };
        let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        if let Some(pkg) = manifest_package_name(&text) {
            lib_idents.insert(pkg.replace('-', "_"), key.clone());
            package_names.insert(pkg, key.clone());
        }
        manifests.insert(key.clone(), text);
    }

    let mut crate_scope: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for key in crate_keys {
        let mut scope: BTreeSet<String> = std::iter::once(key.clone()).collect();
        if let Some(text) = manifests.get(key) {
            // Any known workspace package named after [package] ends is
            // a dependency (direct table or `pkg.workspace = true`).
            let after_package = text
                .split_once("[dependencies]")
                .map(|(_, rest)| rest)
                .unwrap_or("");
            for (pkg, dep_key) in &package_names {
                if dep_key != key && after_package.contains(pkg.as_str()) {
                    scope.insert(dep_key.clone());
                }
            }
        }
        crate_scope.insert(key.clone(), scope);
    }
    (lib_idents, crate_scope)
}

/// Fixture fallback: full-mesh crate scope and conventional lib
/// identifiers (`eta_tensor` → `tensor`, `eta_lstm_core` → `core`).
fn fixture_scopes(
    crate_keys: &BTreeSet<String>,
) -> (BTreeMap<String, String>, BTreeMap<String, BTreeSet<String>>) {
    let mut lib_idents = BTreeMap::new();
    for key in crate_keys {
        if key.starts_with("shim:") || key == "root" {
            continue;
        }
        lib_idents.insert(format!("eta_{key}"), key.clone());
        if key == "core" {
            lib_idents.insert("eta_lstm_core".into(), key.clone());
        }
        if key == "memsim" {
            lib_idents.insert("eta_memsim".into(), key.clone());
        }
        if key == "telemetry" {
            lib_idents.insert("eta_telemetry".into(), key.clone());
        }
    }
    let scope: BTreeSet<String> = crate_keys.iter().cloned().collect();
    let crate_scope = crate_keys
        .iter()
        .map(|k| (k.clone(), scope.clone()))
        .collect();
    (lib_idents, crate_scope)
}

fn manifest_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}
