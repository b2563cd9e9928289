//! Semantic analyses over the parsed workspace model.
//!
//! Unlike the token rules in [`crate::rules`], these passes see real
//! structure: an AST per file ([`crate::parser`]), a function table
//! and cross-crate call graph ([`crate::model`]). Each states a policy
//! that neither rustc nor a tier-1 test checks (DESIGN.md §9 has the
//! mutation audit behind that claim):
//!
//! * **S1** ([`s1`]) — panic reachability: which public APIs of the
//!   numeric crates transitively reach an `unwrap`/`expect`/`panic!`
//!   site; the diagnostic prints the exact call chain.
//! * **S2** ([`s2`]) — nondeterminism taint: clock / entropy /
//!   hash-order values flowing into numeric arithmetic, tensor
//!   buffers, or telemetry values.
//! * **S3** ([`s3`]) — telemetry key liveness: registered keys that
//!   no non-test code ever emits (warnings, not errors).
//! * **H1** ([`h1`]) — hot-path allocation discipline: raw
//!   `Vec`/`Box`/`String`/`clone` allocations reachable from the
//!   per-timestep entry points.
//! * **A2** ([`a2`]) — SIMD readiness: `std::arch` intrinsics need
//!   `#[target_feature]`, a runtime-detect guard with scalar
//!   fallback, and a `// SAFETY:` comment.
//! * **C2 / C3** ([`conc`]) — deterministic merge order (no channel
//!   merges, atomic→float punning or unordered float reductions) and
//!   the ban on locks/atomics in numeric crates outside
//!   `// SYNC:`-justified telemetry plumbing.
//!
//! Data-race freedom, dead stores and index bounds are not here:
//! `#![forbid(unsafe_code)]` + borrowck, `#![deny(unused_assignments)]`
//! and the crates' own tests give those guarantees.

pub mod a2;
pub mod conc;
pub mod h1;
pub mod s1;
pub mod s2;
pub mod s3;

use crate::model::Workspace;
use crate::rules::Finding;
use std::path::Path;

/// Error findings and warnings from all semantic passes.
pub struct SemanticReport {
    pub findings: Vec<Finding>,
    pub warnings: Vec<Finding>,
}

/// Runs every semantic rule over `(root-relative path, source)` pairs. `root`
/// supplies crate-dependency scopes from the manifests when linting a
/// real workspace; fixtures pass `None`.
pub fn analyze_sources(sources: &[(String, String)], root: Option<&Path>) -> SemanticReport {
    let ws = Workspace::build(sources, root);
    let mut findings = s1::run(&ws);
    findings.extend(s2::run(&ws));
    findings.extend(h1::run(&ws));
    findings.extend(a2::run(&ws));
    findings.extend(conc::run(&ws));
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    SemanticReport {
        findings,
        warnings: s3::run(&ws),
    }
}
