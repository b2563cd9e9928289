//! Fixture tests: for every rule, source snippets that must pass
//! clean and ones that must fail with the expected `file:line`
//! diagnostic. These are the executable spec of what each rule
//! flags — if a rule's matcher drifts, these fail before the
//! workspace-wide gate ever runs.

use eta_lint::rules::{dead_keys, lint_source, registry_keys};
use eta_lint::Finding;
use std::collections::BTreeSet;

/// A library file: every per-file rule is in force.
const PLAIN_LIB: &str = "crates/workloads/src/fixture.rs";
/// A test file: A2 and T1 apply; its emits keep no key alive.
const TEST_FILE: &str = "crates/core/tests/fixture.rs";

fn registry() -> BTreeSet<String> {
    registry_keys(r#"pub const GOOD: &str = "train_loss_mean";"#)
}

fn run(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src, &registry())
}

/// Lines of `rule`'s findings in `src`.
fn lines(src: &str, rule: &str) -> Vec<u32> {
    run(PLAIN_LIB, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[track_caller]
fn assert_hits(path: &str, src: &str, rule: &str, line: u32) {
    let findings = run(path, src);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.line == line && f.file == path),
        "expected a {rule} finding at {path}:{line}, got {findings:#?}"
    );
}

#[track_caller]
fn assert_clean(path: &str, src: &str) {
    let findings = run(path, src);
    assert!(findings.is_empty(), "expected clean, got {findings:#?}");
}

// --- T1 --------------------------------------------------------------------

#[test]
fn t1_flags_unregistered_key_literals() {
    let src = "pub fn f(t: &Telemetry) {\n    t.gauge(\"rogue_metric\", 1.0);\n}\n";
    assert_hits(PLAIN_LIB, src, "T1", 2);
}

#[test]
fn t1_allows_registry_keys_and_consts() {
    // Literal that IS in the registry, and a const-passed key.
    assert_clean(
        PLAIN_LIB,
        "pub fn f(t: &Telemetry) {\n\
             t.gauge(\"train_loss_mean\", 1.0);\n\
             t.incr(keys::TRAIN_EPOCHS_TOTAL);\n\
         }\n",
    );
}

// --- A2 --------------------------------------------------------------------

/// A safe `#[target_feature]` kernel in the shape of `tensor/src/simd.rs`.
const TF_KERNEL: &str = "#[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
                         fn tile(out: &mut [f32; 8]) {\n\
                         \x20   // SAFETY: `out` is 8 writable f32s by its type.\n\
                         \x20   unsafe { _mm256_storeu_ps(out.as_mut_ptr(), _mm256_setzero_ps()) }\n\
                         }\n";

#[test]
fn a2_flags_naked_intrinsic_use() {
    let src = "pub fn dot8(n: usize) -> f32 {\n\
               \x20   // SAFETY: none given, and no feature was asked for.\n\
               \x20   let acc = unsafe { _mm256_setzero_ps() };\n\
               \x20   0.0\n\
               }\n";
    assert_eq!(lines(src, "A2"), [3]);
}

#[test]
fn a2_flags_an_avx2_entry_whose_feature_guard_was_removed() {
    // The dispatch wrapper of `tensor/src/simd.rs` with its
    // `if is_x86_feature_detected!(…) { … } else { scalar }` dropped.
    let entry = "pub fn gemm(out: &mut [f32; 8], k: usize) {\n\
                 \x20   if k == 0 {\n\
                 \x20       return scalar(out);\n\
                 \x20   }\n\
                 \x20   // SAFETY: AVX2 assumed.\n\
                 \x20   unsafe { tile::<NoEpilogue>(out) }\n\
                 }\n";
    assert_eq!(lines(&format!("{TF_KERNEL}{entry}"), "A2"), [11]);
    // The call in the scalar branch of a guard is not guarded either.
    let entry = "pub fn gemm(out: &mut [f32; 8]) {\n\
                 \x20   if is_x86_feature_detected!(\"avx2\") {\n\
                 \x20       scalar(out)\n\
                 \x20   } else {\n\
                 \x20       // SAFETY: wrong branch.\n\
                 \x20       unsafe { tile(out) }\n\
                 \x20   }\n\
                 }\n";
    assert_eq!(lines(&format!("{TF_KERNEL}{entry}"), "A2"), [11]);
}

#[test]
fn a2_passes_guarded_entries_and_target_feature_bodies() {
    // Compound guard with an else branch, as in `tensor/src/simd.rs`;
    // the kernel's own intrinsics sit in a `#[target_feature]` body.
    let entry = "pub fn gemm(out: &mut [f32; 8]) {\n\
                 \x20   if is_x86_feature_detected!(\"avx2\") && is_x86_feature_detected!(\"fma\") {\n\
                 \x20       // SAFETY: the feature guard above proves avx2 and fma.\n\
                 \x20       unsafe { tile(out) }\n\
                 \x20   } else {\n\
                 \x20       scalar(out)\n\
                 \x20   }\n\
                 }\n";
    assert_clean(PLAIN_LIB, &format!("{TF_KERNEL}{entry}"));
    // A guard with no else: the code after the `if` is the fallback.
    let entry = "pub fn gemm(out: &mut [f32; 8]) {\n\
                 \x20   if is_x86_feature_detected!(\"avx2\") {\n\
                 \x20       // SAFETY: the feature guard above proves avx2.\n\
                 \x20       return unsafe { tile(out) };\n\
                 \x20   }\n\
                 \x20   scalar(out)\n\
                 }\n";
    assert_clean(PLAIN_LIB, &format!("{TF_KERNEL}{entry}"));
    // Unsafe blocks that enter no target-feature code are not A2's.
    assert_clean(
        TEST_FILE,
        "fn alloc(l: Layout) -> *mut u8 {\n\
         \x20   // SAFETY: forwarded unchanged.\n\
         \x20   unsafe { System.alloc(l) }\n\
         }\n",
    );
}

// --- S3 --------------------------------------------------------------------

const KEYS: &str = "crates/telemetry/src/keys.rs";

fn dead(keys: &str, emitters: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = emitters
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    dead_keys(KEYS, keys, &sources)
}

#[test]
fn s3_warns_on_registered_but_never_emitted_key() {
    let keys = "pub const LIVE: &str = \"train_loss_mean\";\n\
                pub const DEAD: &str = \"stale_metric\";\n";
    // LIVE is emitted through its const path; DEAD never is.
    let emitter = "pub fn f(t: &Telemetry) {\n\
                   \x20   t.gauge(eta_telemetry::keys::LIVE, 1.0);\n\
                   }\n";
    let s3 = dead(keys, &[(PLAIN_LIB, emitter)]);
    assert_eq!(s3.len(), 1, "{s3:#?}");
    assert_eq!(
        (s3[0].rule.as_str(), s3[0].file.as_str(), s3[0].line),
        ("S3", KEYS, 2)
    );
    assert_eq!(
        s3[0].message,
        "registered telemetry key \"stale_metric\" (const DEAD) is never emitted outside tests"
    );
}

#[test]
fn s3_literal_emission_counts_but_test_only_emission_does_not() {
    let keys = "pub const A: &str = \"metric_a\";\n\
                pub const B: &str = \"metric_b\";\n\
                pub const C: &str = \"metric_c\";\n";
    // A is emitted as a literal from lib code; B only from a test
    // module and C only from an integration test, which keep no key
    // alive.
    let emitter = "pub fn f(t: &Telemetry) {\n\
                   \x20   t.incr(\"metric_a\");\n\
                   }\n\
                   \n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   pub fn probe(t: &Telemetry) {\n\
                   \x20       t.incr(\"metric_b\");\n\
                   \x20   }\n\
                   }\n";
    let test = "fn probe(t: &Telemetry) { t.incr(keys::C); }\n";
    let s3 = dead(keys, &[(PLAIN_LIB, emitter), (TEST_FILE, test)]);
    let lines: Vec<u32> = s3.iter().map(|f| f.line).collect();
    assert_eq!(lines, [2, 3], "{s3:#?}");
}

// --- scope handling --------------------------------------------------------

#[test]
fn shims_get_no_t1() {
    // A shim may emit any key (and is clippy's business otherwise).
    assert_clean(
        "shims/rand/src/fixture.rs",
        "pub fn f(t: &Telemetry) {\n    t.gauge(\"rogue_metric\", 1.0);\n}\n",
    );
}

#[test]
fn unclassified_paths_produce_nothing() {
    let rogue = "pub fn f(t: &Telemetry) {\n    t.gauge(\"rogue_metric\", 1.0);\n}\n";
    assert!(!run(PLAIN_LIB, rogue).is_empty());
    assert!(run("results/scratch.rs", rogue).is_empty());
}
