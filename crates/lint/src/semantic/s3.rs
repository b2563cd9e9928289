//! S3 — telemetry key liveness.
//!
//! The T1 token rule keeps unregistered keys out of emit calls; S3
//! closes the loop in the other direction: a key that is *registered*
//! in `crates/telemetry/src/keys.rs` but never emitted from non-test
//! code is a warning (stale schema, or an emit someone forgot to
//! wire). Warnings do not affect the exit code — a registry may
//! legitimately stay one release ahead of its emitters — but they are
//! rendered and land in the JSON report.

use crate::ast::{walk_items, ExprKind, ItemKind};
use crate::model::{walk_block_exprs, Workspace};
use crate::rules::{Finding, ScopeKind, T1_METHODS};
use std::collections::{BTreeMap, BTreeSet};

/// Registry file, relative to the workspace root.
const KEYS_FILE: &str = "crates/telemetry/src/keys.rs";

pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Registered keys: `pub const NAME: &str = "key";` in keys.rs.
    let mut registered: BTreeMap<String, (String, u32)> = BTreeMap::new(); // key → (const, line)
    let Some(keys_file) = ws.files.iter().find(|f| f.rel == KEYS_FILE) else {
        return Vec::new();
    };
    walk_items(&keys_file.ast.items, &mut |item| {
        if let ItemKind::Const {
            init: Some(init), ..
        } = &item.kind
        {
            if let ExprKind::Str(s) = &init.kind {
                registered.insert(s.clone(), (item.name.clone(), item.line));
            }
        }
    });
    if registered.is_empty() {
        return Vec::new();
    }

    // Emitted keys: literal or const-path first argument of a telemetry
    // emit method, in non-test code.
    let mut emitted_lits: BTreeSet<String> = BTreeSet::new();
    let mut emitted_consts: BTreeSet<String> = BTreeSet::new();
    for f in &ws.fns {
        if f.in_test || !matches!(f.kind, ScopeKind::Lib | ScopeKind::Bin) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        walk_block_exprs(body, &mut |e| {
            if let ExprKind::MethodCall { method, args, .. } = &e.kind {
                if T1_METHODS.contains(&method.as_str()) {
                    match args.first().map(|a| &a.kind) {
                        Some(ExprKind::Str(s)) => {
                            emitted_lits.insert(s.clone());
                        }
                        Some(ExprKind::Path(segs)) => {
                            if let Some(last) = segs.last() {
                                emitted_consts.insert(last.clone());
                            }
                        }
                        _ => {}
                    }
                }
            }
        });
    }

    let mut warnings = Vec::new();
    for (key, (const_name, line)) in &registered {
        if emitted_lits.contains(key) || emitted_consts.contains(const_name) {
            continue;
        }
        warnings.push(Finding {
            rule: "S3".into(),
            file: KEYS_FILE.into(),
            line: *line,
            message: format!(
                "registered telemetry key \"{key}\" (const {const_name}) is never emitted outside tests"
            ),
        });
    }
    warnings
}
