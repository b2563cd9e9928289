//! eta-lint: the workspace policies no stock lint expresses.
//!
//! Most of the determinism contract (DESIGN.md §8) is held by clippy,
//! configured in the root `clippy.toml`: hash-ordered collections,
//! locks, atomics and channels are `disallowed_types`, clocks and
//! entropy `disallowed_methods`, and the numeric crates deny
//! `unwrap`/`expect`/`panic!`. The workspace `[lints]` table denies
//! `clippy::undocumented_unsafe_blocks`, so every `unsafe` block
//! carries a `// SAFETY:` comment. What is left runs here, over the token
//! stream of every `.rs` file under the workspace root (a
//! registry-less environment rules out `syn`; see [`lexer`]):
//!
//! * **A2**, **T1** ([`rules::lint_source`]) — feature-guarded entry
//!   into `#[target_feature]` code, registry-only telemetry keys;
//! * **S3** ([`rules::dead_keys`]) — registered keys nobody emits,
//!   reported as warnings;
//! * **R1** — no stray `.proptest-regressions` seed files (the in-tree
//!   proptest shim never replays them).
//!
//! `tests/lint_clean.rs` at the workspace root runs the pass under
//! `cargo test` and fails on any finding. DESIGN.md §9 maps every rule
//! to the check that holds it.

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, registry_keys, Finding};

use std::path::Path;

/// Path of the telemetry key registry T1 and S3 check against.
pub const REGISTRY_PATH: &str = "crates/telemetry/src/keys.rs";

/// Outcome of linting a whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Files scanned, root-relative, sorted.
    pub files: Vec<String>,
    /// Findings — any of these fails the run.
    pub findings: Vec<Finding>,
    /// Advisory diagnostics (S3 telemetry liveness).
    pub warnings: Vec<Finding>,
}

impl Report {
    /// The run is clean when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: `file:line: RULE message` per finding
    /// and warning, then a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let tagged = self
            .findings
            .iter()
            .map(|f| ("", f))
            .chain(self.warnings.iter().map(|w| ("warning: ", w)));
        for (tag, f) in tagged {
            out.push_str(&format!(
                "{tag}{}:{}: {} {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "eta-lint: {} file(s), {} finding(s), {} warning(s)\n",
            self.files.len(),
            self.findings.len(),
            self.warnings.len(),
        ));
        out
    }
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns the I/O error of a directory or file that cannot be read.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    // Without the registry T1 fires on every literal key.
    let keys_src = std::fs::read_to_string(root.join(REGISTRY_PATH)).unwrap_or_default();
    let registry = registry_keys(&keys_src);

    let mut paths = Vec::new();
    collect_files(root, root, &mut paths)?;
    paths.sort();

    let mut findings = Vec::new();
    let mut sources = Vec::new();
    for rel in paths {
        if rel.ends_with(".proptest-regressions") {
            findings.push(Finding {
                rule: "R1".into(),
                file: rel,
                line: 1,
                message: "stray `.proptest-regressions` seed file: the in-tree proptest shim \
                          never replays these; delete it"
                    .into(),
            });
        } else if rules::classify(&rel).is_some() {
            let src = std::fs::read_to_string(root.join(&rel))?;
            findings.extend(lint_source(&rel, &src, &registry));
            sources.push((rel, src));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    let warnings = rules::dead_keys(REGISTRY_PATH, &keys_src, &sources);

    Ok(Report {
        files: sources.into_iter().map(|(rel, _)| rel).collect(),
        findings,
        warnings,
    })
}

/// Directories never worth descending into.
const SKIP_DIRS: &[&str] = &["target", "results"];

/// Collects the root-relative paths of every `.rs` and
/// `.proptest-regressions` file under `dir`.
fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                collect_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") || name.ends_with(".proptest-regressions") {
            if let Ok(rel) = path.strip_prefix(root) {
                let parts: Vec<_> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect();
                out.push(parts.join("/"));
            }
        }
    }
    Ok(())
}
