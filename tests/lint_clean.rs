//! Workspace gate: `cargo test` fails if the eta-lint pass (A2, T1,
//! R1; see `crates/lint`) reports any finding. The rest of the
//! determinism contract is clippy's, configured in `clippy.toml` and
//! the workspace `[lints]` table.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = eta_lint::lint_workspace(root)
        .unwrap_or_else(|e| panic!("eta-lint could not read the workspace: {e}"));
    assert!(
        !report.files.is_empty(),
        "lint walked no files; workspace root detection is broken"
    );
    assert!(
        report.is_clean(),
        "eta-lint found violations; fix them:\n{}",
        report.render_text()
    );
}
