//! Fixture tests for the semantic rules (S1/S2/S3/H1/A2/C2/C3). Each drives
//! `analyze_sources` on a tiny synthetic workspace and asserts the
//! exact diagnostics — in particular the S1 call chains, which are the
//! whole point of the rule: a reviewer must be able to audit the path
//! from public API to panic site without re-deriving it.

use eta_lint::semantic::analyze_sources;
use eta_lint::Finding;

/// Paths that classify as numeric-crate library code.
const CORE: &str = "crates/core/src/fixture.rs";
const TENSOR: &str = "crates/tensor/src/fixture.rs";
/// Non-numeric library crate: S1's danger scan does not apply, the
/// telemetry value sink of S2 still does.
const WORKLOADS: &str = "crates/workloads/src/fixture.rs";

fn analyze(files: &[(&str, &str)]) -> (Vec<Finding>, Vec<Finding>) {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    let report = analyze_sources(&sources, None);
    (report.findings, report.warnings)
}

fn rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// --- S1: panic reachability ------------------------------------------------

#[test]
fn s1_reports_exact_call_chain_through_private_helpers() {
    let src = "pub fn api(x: Option<u32>) -> u32 {\n\
               \x20   helper(x)\n\
               }\n\
               \n\
               fn helper(x: Option<u32>) -> u32 {\n\
               \x20   danger(x)\n\
               }\n\
               \n\
               fn danger(x: Option<u32>) -> u32 {\n\
               \x20   x.unwrap()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let s1 = rule(&findings, "S1");
    assert_eq!(s1.len(), 1, "exactly one reachable danger: {findings:#?}");
    assert_eq!(s1[0].file, CORE);
    assert_eq!(s1[0].line, 10);
    assert_eq!(
        s1[0].message,
        "`x.unwrap()` reachable from public API via core::api -> core::helper -> core::danger"
    );

    // A function passed by value is called by whoever receives it: the
    // mention is an edge (the `PackedB::pack_par(…, fill_nt_panel)`
    // shape, where `fill(…)` in the driver resolves to nothing).
    let by_value = |entry_arg: &str| {
        format!(
            "pub fn from_nt(src: &[f32]) -> f32 {{\n\
             \x20   pack_par(src, {entry_arg})\n\
             }}\n\
             \n\
             fn pack_par(src: &[f32], fill: fn(&[f32]) -> f32) -> f32 {{\n\
             \x20   fill(src)\n\
             }}\n\
             \n\
             fn fill_nn_panel(src: &[f32]) -> f32 {{\n\
             \x20   src.len() as f32\n\
             }}\n\
             \n\
             fn fill_nt_panel(src: &[f32]) -> f32 {{\n\
             \x20   *src.first().unwrap()\n\
             }}\n"
        )
    };
    // Pass: the panicking filler exists but nothing public mentions it.
    let (findings, _) = analyze(&[(TENSOR, &by_value("fill_nn_panel"))]);
    assert!(rule(&findings, "S1").is_empty(), "{findings:#?}");
    // Fail: handed to the driver as a `fn` pointer.
    let (findings, _) = analyze(&[(TENSOR, &by_value("fill_nt_panel"))]);
    let s1 = rule(&findings, "S1");
    assert_eq!(s1.len(), 1, "{findings:#?}");
    assert_eq!(s1[0].line, 14);
    assert_eq!(
        s1[0].message,
        "`src.first().unwrap()` reachable from public API via \
         tensor::from_nt -> tensor::fill_nt_panel"
    );
}

#[test]
fn s1_reports_method_chain_with_impl_type_names() {
    let src = "pub struct Gate {\n\
               \x20   h: usize,\n\
               }\n\
               \n\
               impl Gate {\n\
               \x20   pub fn apply(&self, xs: &[f32]) -> f32 {\n\
               \x20       self.pick(xs)\n\
               \x20   }\n\
               \n\
               \x20   fn pick(&self, xs: &[f32]) -> f32 {\n\
               \x20       *xs.get(self.h).expect(\"h in range\")\n\
               \x20   }\n\
               }\n";
    let (findings, _) = analyze(&[(TENSOR, src)]);
    let s1 = rule(&findings, "S1");
    assert_eq!(s1.len(), 1, "{findings:#?}");
    assert_eq!(s1[0].line, 11);
    assert!(
        s1[0]
            .message
            .ends_with("via tensor::Gate::apply -> tensor::Gate::pick"),
        "chain must name the impl types: {}",
        s1[0].message
    );
    assert!(
        s1[0].message.starts_with("`xs.get(self.h).expect()`"),
        "{}",
        s1[0].message
    );
}

#[test]
fn s1_unreachable_and_test_sites_are_silent() {
    // A danger nothing public calls, a danger under #[cfg(test)], and
    // a danger in a non-numeric crate: none are findings.
    let core = "pub fn api(x: u32) -> u32 {\n\
                \x20   x + 1\n\
                }\n\
                \n\
                fn dead(x: Option<u32>) -> u32 {\n\
                \x20   x.unwrap()\n\
                }\n\
                \n\
                #[cfg(test)]\n\
                mod tests {\n\
                \x20   pub fn probe() {\n\
                \x20       panic!(\"test only\");\n\
                \x20   }\n\
                }\n";
    let plain = "pub fn f(x: Option<u32>) -> u32 {\n\
                 \x20   x.unwrap()\n\
                 }\n";
    let (findings, _) = analyze(&[(CORE, core), (WORKLOADS, plain)]);
    assert!(rule(&findings, "S1").is_empty(), "{findings:#?}");
}

// --- S2: nondeterminism taint ----------------------------------------------

#[test]
fn s2_entropy_reaching_arithmetic_is_flagged() {
    let src = "pub fn jitter() -> f64 {\n\
               \x20   let r: f64 = rand::random();\n\
               \x20   r * 0.5\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let s2 = rule(&findings, "S2");
    assert_eq!(s2.len(), 1, "{findings:#?}");
    assert_eq!(s2[0].line, 3);
    assert!(
        s2[0].message.contains("(entropy)") && s2[0].message.contains("arithmetic"),
        "{}",
        s2[0].message
    );
}

#[test]
fn s2_entropy_flows_through_helper_returns() {
    // Interprocedural: the taint enters through a private helper's
    // return value, not a local source.
    let src = "pub fn scale() -> f64 {\n\
               \x20   noise() * 0.5\n\
               }\n\
               \n\
               fn noise() -> f64 {\n\
               \x20   rand::random()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let s2 = rule(&findings, "S2");
    assert_eq!(s2.len(), 1, "{findings:#?}");
    assert_eq!(s2[0].line, 2);
    assert!(s2[0].message.contains("(entropy)"), "{}", s2[0].message);
}

#[test]
fn s2_clock_into_telemetry_gauge_is_clean() {
    // The PR 2 shard-reduce pattern: a measured duration that only
    // ever reaches a telemetry gauge is provably benign — timing
    // observability must not count as nondeterminism.
    let src = "pub fn timed(t: &Telemetry) {\n\
               \x20   let t0 = std::time::Instant::now();\n\
               \x20   let secs = t0.elapsed().as_secs_f64();\n\
               \x20   t.gauge_with(\"reduce_seconds\", secs);\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "S2").is_empty(), "{findings:#?}");
}

#[test]
fn s2_clock_into_tensor_buffer_is_flagged() {
    // ...but the same duration written into a numeric buffer is a
    // real reproducibility bug.
    let src = "pub fn stamp(out: &mut [f64]) {\n\
               \x20   assert!(!out.is_empty());\n\
               \x20   let t0 = std::time::Instant::now();\n\
               \x20   let dt = t0.elapsed().as_secs_f64();\n\
               \x20   out[0] = dt;\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let s2 = rule(&findings, "S2");
    assert_eq!(s2.len(), 1, "{findings:#?}");
    assert_eq!(s2[0].line, 5);
    assert!(
        s2[0].message.contains("(clock)") && s2[0].message.contains("buffer write"),
        "{}",
        s2[0].message
    );
}

#[test]
fn s2_hash_iteration_order_into_telemetry_is_flagged() {
    // Values accumulated in HashMap iteration order carry hash-order
    // taint; telemetry must not depend on it even outside the numeric
    // crates.
    let src = "pub fn report(t: &Telemetry, m: &std::collections::HashMap<String, f64>) {\n\
               \x20   let mut s = 0.0;\n\
               \x20   for v in m.values() {\n\
               \x20       s += *v;\n\
               \x20   }\n\
               \x20   t.gauge_with(\"loss_sum\", s);\n\
               }\n";
    let (findings, _) = analyze(&[(WORKLOADS, src)]);
    let s2 = rule(&findings, "S2");
    assert_eq!(s2.len(), 1, "{findings:#?}");
    assert_eq!(s2[0].line, 6);
    assert!(
        s2[0].message.contains("(hash-order)") && s2[0].message.contains("telemetry value"),
        "{}",
        s2[0].message
    );
}

#[test]
fn s2_seeded_rng_stays_clean() {
    let src = "pub fn init(seed: u64, out: &mut [f64]) {\n\
               \x20   assert!(!out.is_empty());\n\
               \x20   let mut rng = StdRng::seed_from_u64(seed);\n\
               \x20   out[0] = rng.next_f64();\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

// --- S3: telemetry key liveness --------------------------------------------

const KEYS: &str = "crates/telemetry/src/keys.rs";

#[test]
fn s3_warns_on_registered_but_never_emitted_key() {
    let keys = "pub const LIVE: &str = \"train_loss_mean\";\n\
                pub const DEAD: &str = \"stale_metric\";\n";
    // LIVE is emitted through its const path; DEAD never is.
    let emitter = "pub fn f(t: &Telemetry) {\n\
                   \x20   t.gauge(keys::LIVE, 1.0);\n\
                   }\n";
    let (_, warnings) = analyze(&[(KEYS, keys), (CORE, emitter)]);
    let s3 = rule(&warnings, "S3");
    assert_eq!(s3.len(), 1, "{warnings:#?}");
    assert_eq!(s3[0].file, KEYS);
    assert_eq!(s3[0].line, 2);
    assert_eq!(
        s3[0].message,
        "registered telemetry key \"stale_metric\" (const DEAD) is never emitted outside tests"
    );
}

#[test]
fn s3_literal_emission_counts_but_test_only_emission_does_not() {
    let keys = "pub const A: &str = \"metric_a\";\n\
                pub const B: &str = \"metric_b\";\n";
    // A is emitted as a string literal from lib code; B only from a
    // test module, which does not keep a key alive.
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
    let (_, warnings) = analyze(&[(KEYS, keys), (CORE, emitter)]);
    let s3 = rule(&warnings, "S3");
    assert_eq!(s3.len(), 1, "{warnings:#?}");
    assert!(s3[0].message.contains("metric_b"), "{}", s3[0].message);
}

// --- H1: hot-path allocation discipline ------------------------------------

#[test]
fn h1_reports_allocation_with_call_chain_from_hot_root() {
    let src = "pub fn forward_ws(n: usize) -> f32 {\n\
               \x20   helper(n)\n\
               }\n\
               \n\
               fn helper(n: usize) -> f32 {\n\
               \x20   let buf = vec![0.0f32; n];\n\
               \x20   buf.iter().sum()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let h1 = rule(&findings, "H1");
    assert_eq!(h1.len(), 1, "{findings:#?}");
    assert_eq!(h1[0].file, CORE);
    assert_eq!(h1[0].line, 6);
    assert_eq!(
        h1[0].message,
        "`vec![…]` allocates in the per-timestep hot path, \
         reached via core::forward_ws -> core::helper"
    );
}

#[test]
fn h1_setup_regions_and_error_paths_stay_silent() {
    // `pack_with` is a setup stop (panel caching allocates by design),
    // and `Err(format!…)` is a cold path: neither may produce a finding.
    let src = "pub fn forward_ws(n: usize) -> Result<f32, String> {\n\
               \x20   let w = pack_with(n);\n\
               \x20   if n == 0 {\n\
               \x20       return Err(format!(\"empty batch: {n}\"));\n\
               \x20   }\n\
               \x20   Ok(w)\n\
               }\n\
               \n\
               fn pack_with(n: usize) -> f32 {\n\
               \x20   let buf = vec![0.0f32; n];\n\
               \x20   buf.iter().sum()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "H1").is_empty(), "{findings:#?}");
}

#[test]
fn h1_is_scoped_to_the_hot_call_graph() {
    // The same allocating helper is fine when only cold code calls it.
    let src = "pub fn report(n: usize) -> f32 {\n\
               \x20   helper(n)\n\
               }\n\
               \n\
               fn helper(n: usize) -> f32 {\n\
               \x20   let buf = vec![0.0f32; n];\n\
               \x20   buf.iter().sum()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "H1").is_empty(), "{findings:#?}");
}

#[test]
fn h1_flags_a_listed_root_its_home_file_no_longer_defines() {
    // Roots are matched by bare name, so a rename would silently shrink
    // the contract; the home file recorded next to each name turns that
    // into a finding.
    const CELL: &str = "crates/core/src/cell.rs";
    let cell_rs = |forward: &str| {
        format!(
            "pub fn {forward}() {{}}\n\
             pub fn backward_ws() {{}}\n\
             pub fn compute_p1_into() {{}}\n\
             \n\
             #[cfg(test)]\n\
             mod tests {{\n\
             \x20   fn forward_ws() {{}}\n\
             }}\n"
        )
    };
    // Pass: every root listed for cell.rs is library code there.
    let (findings, _) = analyze(&[(CELL, &cell_rs("forward_ws"))]);
    assert!(rule(&findings, "H1").is_empty(), "{findings:#?}");
    // Fail: renamed — the test-module namesake does not count.
    let (findings, _) = analyze(&[(CELL, &cell_rs("forward_cell"))]);
    let h1 = rule(&findings, "H1");
    assert_eq!(h1.len(), 1, "{findings:#?}");
    assert_eq!((h1[0].file.as_str(), h1[0].line), (CELL, 1));
    assert!(
        h1[0].message.starts_with(
            "`forward_ws` is listed in HOT_ROOTS but crates/core/src/cell.rs defines no"
        ),
        "{}",
        h1[0].message
    );
}

// --- A2: SIMD readiness ----------------------------------------------------

#[test]
fn a2_flags_naked_intrinsic_use() {
    let src = "pub fn dot8(n: usize) -> f32 {\n\
               \x20   let acc = unsafe { _mm256_setzero_ps() };\n\
               \x20   0.0\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let a2 = rule(&findings, "A2");
    assert_eq!(a2.len(), 2, "{findings:#?}");
    assert_eq!(a2[0].file, CORE);
    assert_eq!(a2[0].line, 2);
    assert_eq!(
        a2[0].message,
        "intrinsic `_mm256_setzero_ps` lacks a `// SAFETY:` comment within 3 lines above"
    );
    assert_eq!(a2[1].line, 2);
    assert_eq!(
        a2[1].message,
        "intrinsic `_mm256_setzero_ps` used outside a #[target_feature] function"
    );
}

#[test]
fn a2_flags_unguarded_call_into_target_feature_fn() {
    let src = "#[target_feature(enable = \"avx2\")]\n\
               unsafe fn sum8(n: usize) -> f32 {\n\
               \x20   // SAFETY: caller verified avx2 support.\n\
               \x20   let acc = _mm256_setzero_ps();\n\
               \x20   0.0\n\
               }\n\
               \n\
               pub fn sum(n: usize) -> f32 {\n\
               \x20   unsafe { sum8(n) }\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let a2 = rule(&findings, "A2");
    assert_eq!(a2.len(), 1, "{findings:#?}");
    assert_eq!(a2[0].line, 9);
    assert_eq!(
        a2[0].message,
        "call to #[target_feature] fn `sum8` without an \
         is_x86_feature_detected! guard and scalar fallback"
    );
}

#[test]
fn a2_detect_guarded_dispatch_with_fallback_stays_clean() {
    let src = "#[target_feature(enable = \"avx2\")]\n\
               unsafe fn sum8(n: usize) -> f32 {\n\
               \x20   // SAFETY: caller verified avx2 support.\n\
               \x20   let acc = _mm256_setzero_ps();\n\
               \x20   0.0\n\
               }\n\
               \n\
               pub fn sum(n: usize) -> f32 {\n\
               \x20   if is_x86_feature_detected!(\"avx2\") {\n\
               \x20       unsafe { sum8(n) }\n\
               \x20   } else {\n\
               \x20       n as f32\n\
               \x20   }\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "A2").is_empty(), "{findings:#?}");
}

#[test]
fn a2_safe_target_feature_helper_chain_stays_clean() {
    // The real `simd.rs` shape (target_feature_1.1): *safe* TF
    // helpers call each other freely — only the non-TF entry needs
    // the compound avx2+fma detect guard with a scalar else branch.
    let src = "#[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
               fn splat8(x: f32) -> f32 {\n\
               \x20   // SAFETY: register-only intrinsic; caller proved avx2.\n\
               \x20   let v = _mm256_set1_ps(x);\n\
               \x20   x\n\
               }\n\
               \n\
               #[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
               fn tile(x: f32) -> f32 {\n\
               \x20   splat8(x)\n\
               }\n\
               \n\
               pub fn gemm(x: f32) -> f32 {\n\
               \x20   if is_x86_feature_detected!(\"avx2\") && is_x86_feature_detected!(\"fma\") {\n\
               \x20       // SAFETY: the feature guard above proves avx2 and fma.\n\
               \x20       unsafe { tile(x) }\n\
               \x20   } else {\n\
               \x20       x\n\
               \x20   }\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "A2").is_empty(), "{findings:#?}");
}

#[test]
fn a2_flags_compound_guard_without_scalar_fallback() {
    // Detect guard present but no else branch: the portability
    // contract (scalar fallback on every path) is still broken.
    let src = "#[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
               fn tile(x: f32) -> f32 {\n\
               \x20   // SAFETY: register-only intrinsic; caller proved avx2.\n\
               \x20   let v = _mm256_set1_ps(x);\n\
               \x20   x\n\
               }\n\
               \n\
               pub fn gemm(x: f32) -> f32 {\n\
               \x20   if is_x86_feature_detected!(\"avx2\") && is_x86_feature_detected!(\"fma\") {\n\
               \x20       // SAFETY: the feature guard above proves avx2 and fma.\n\
               \x20       return unsafe { tile(x) };\n\
               \x20   }\n\
               \x20   x\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let a2 = rule(&findings, "A2");
    assert_eq!(a2.len(), 1, "{findings:#?}");
    assert_eq!(a2[0].line, 11);
    assert_eq!(
        a2[0].message,
        "call to #[target_feature] fn `tile` without an \
         is_x86_feature_detected! guard and scalar fallback"
    );
}

#[test]
fn a2_flags_unguarded_call_into_safe_target_feature_helper() {
    // A *safe* TF fn (no `unsafe fn`) is still a dispatch hazard: the
    // caller must prove the features at runtime before jumping in.
    let src = "#[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
               fn tile(x: f32) -> f32 {\n\
               \x20   // SAFETY: register-only intrinsic; caller proved avx2.\n\
               \x20   let v = _mm256_set1_ps(x);\n\
               \x20   x\n\
               }\n\
               \n\
               pub fn gemm(x: f32) -> f32 {\n\
               \x20   unsafe { tile(x) }\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let a2 = rule(&findings, "A2");
    assert_eq!(a2.len(), 1, "{findings:#?}");
    assert_eq!(a2[0].line, 9);
    assert!(a2[0].message.contains("without an"), "{findings:#?}");
}

// --- C2: deterministic merge order ------- ---------------------------------

#[test]
fn c2_flags_completion_order_channel_merge() {
    let src = r#"
pub fn reduce_shards(shards: usize) -> f32 {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut total = 0.0f32;
    for _ in 0..shards {
        if let Ok(v) = rx.recv() {
            total += v;
        }
    }
    drop(tx);
    total
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let c2 = rule(&findings, "C2");
    assert!(
        c2.iter().any(|f| f.file == CORE && f.line == 3),
        "channel construction at line 3: {findings:#?}"
    );
    assert!(
        c2.iter()
            .any(|f| f.line == 6 && f.message.contains("completion order")),
        "recv at line 6: {findings:#?}"
    );
}

#[test]
fn c2_flags_reordered_parallel_reduction_and_passes_sequential_merge() {
    let src = r#"
pub fn bad(xs: &[f32]) -> f32 {
    xs.par_iter().map(|x| x * 2.0).sum()
}

pub fn good(slots: &[f32]) -> f32 {
    let mut total = 0.0f32;
    for v in slots.iter() {
        total += v;
    }
    total
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let c2 = rule(&findings, "C2");
    assert_eq!(c2.len(), 1, "{findings:#?}");
    assert_eq!(c2[0].line, 3);
    assert!(
        c2[0].message.contains("par_iter"),
        "source named: {}",
        c2[0].message
    );
}

// --- C3: synchronization discipline ------ --------------------------------

#[test]
fn c3_flags_mutex_in_numeric_crate_and_accepts_sync_justification() {
    let src = r#"
use std::sync::Mutex;

pub struct State {
    inner: Mutex<Vec<f32>>,
}

pub struct Counters {
    // SYNC: telemetry mirror; numeric paths never read through it.
    counts: Mutex<Vec<u64>>,
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let c3 = rule(&findings, "C3");
    assert_eq!(c3.len(), 1, "{findings:#?}");
    assert_eq!(c3[0].file, CORE);
    assert_eq!(c3[0].line, 5);
    assert!(c3[0].message.contains("`Mutex`"), "{}", c3[0].message);
}

#[test]
fn c3_does_not_apply_outside_numeric_crates() {
    let src = r#"
use std::sync::Mutex;

pub struct Registry {
    entries: Mutex<Vec<u64>>,
}
"#;
    let (findings, _) = analyze(&[(WORKLOADS, src)]);
    assert!(
        rule(&findings, "C3").is_empty(),
        "C3 binds numeric crates only: {findings:#?}"
    );
}
