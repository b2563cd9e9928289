//! Fixture tests for the semantic rules (S1/S2/S3). Each drives
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
               \x20       xs[self.h]\n\
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
        s1[0].message.starts_with("unchecked index `xs["),
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

#[test]
fn s1_bounds_prover_discharges_guarded_indexing() {
    // Counter loops over asserted-equal lengths produce no findings;
    // the same access with an arbitrary index does, with the entry
    // point itself as the (one-element) chain.
    let clean = "pub fn dot(xs: &[f32], ys: &[f32]) -> f32 {\n\
                 \x20   assert_eq!(xs.len(), ys.len());\n\
                 \x20   let mut acc = 0.0;\n\
                 \x20   for i in 0..xs.len() {\n\
                 \x20       acc += xs[i] * ys[i];\n\
                 \x20   }\n\
                 \x20   acc\n\
                 }\n";
    let (findings, _) = analyze(&[(CORE, clean)]);
    assert!(rule(&findings, "S1").is_empty(), "{findings:#?}");

    let dirty = "pub fn pick(xs: &[f32], k: usize) -> f32 {\n\
                 \x20   xs[k]\n\
                 }\n";
    let (findings, _) = analyze(&[(CORE, dirty)]);
    let s1 = rule(&findings, "S1");
    assert_eq!(s1.len(), 1, "{findings:#?}");
    assert_eq!(s1[0].line, 2);
    assert_eq!(
        s1[0].message,
        "unchecked index `xs[k]` reachable from public API via core::pick"
    );
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
    // The is_empty guard also discharges the S1 index.
    assert!(rule(&findings, "S1").is_empty(), "{findings:#?}");
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

// --- DS1: dead stores ------------------------------------------------------

#[test]
fn ds1_flags_computed_store_overwritten_before_read() {
    let src = "pub fn stats(xs: &[f32]) -> f32 {\n\
               \x20   let mut acc = 0.0;\n\
               \x20   acc = xs.iter().sum();\n\
               \x20   acc = 0.0;\n\
               \x20   acc\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    let ds1 = rule(&findings, "DS1");
    assert_eq!(ds1.len(), 1, "{findings:#?}");
    assert_eq!(ds1[0].file, CORE);
    assert_eq!(ds1[0].line, 3);
    assert_eq!(
        ds1[0].message,
        "dead store to `acc`: the computed value is overwritten or dropped before any read"
    );
}

#[test]
fn ds1_read_before_overwrite_and_element_stores_stay_clean() {
    // First store is read by `scaled`; the zero re-init is a trivial
    // rhs; element stores never kill the whole buffer.
    let src = "pub fn stats(xs: &[f32], buf: &mut [f32]) -> f32 {\n\
               \x20   let mut acc = 0.0;\n\
               \x20   acc = xs.iter().sum();\n\
               \x20   let scaled = acc * 0.5;\n\
               \x20   acc = 0.0;\n\
               \x20   let mut tmp = vec![0.0; xs.len()];\n\
               \x20   for i in 0..xs.len() {\n\
               \x20       tmp[i] = xs[i] * 2.0;\n\
               \x20   }\n\
               \x20   scaled + acc + tmp.iter().sum::<f32>()\n\
               }\n";
    let (findings, _) = analyze(&[(CORE, src)]);
    assert!(rule(&findings, "DS1").is_empty(), "{findings:#?}");
}

// --- S1 2-D prover: flattened indexing from constructor invariants ---------

#[test]
fn s1_two_d_prover_discharges_flattened_index_from_ctor_invariant() {
    // `zeros` establishes `data.len() == rows * cols`; the prover must
    // discharge `data[r * cols + c]` under the loop bounds with no
    // allowlist entry and no assert.
    let src = "pub struct Grid {\n\
               \x20   data: Vec<f32>,\n\
               \x20   rows: usize,\n\
               \x20   cols: usize,\n\
               }\n\
               \n\
               impl Grid {\n\
               \x20   pub fn zeros(rows: usize, cols: usize) -> Grid {\n\
               \x20       Grid { data: vec![0.0; rows * cols], rows, cols }\n\
               \x20   }\n\
               \n\
               \x20   pub fn sum(&self) -> f32 {\n\
               \x20       let mut acc = 0.0;\n\
               \x20       for r in 0..self.rows {\n\
               \x20           for c in 0..self.cols {\n\
               \x20               acc += self.data[r * self.cols + c];\n\
               \x20           }\n\
               \x20       }\n\
               \x20       acc\n\
               \x20   }\n\
               }\n";
    let (findings, _) = analyze(&[(TENSOR, src)]);
    assert!(rule(&findings, "S1").is_empty(), "{findings:#?}");
}

#[test]
fn s1_two_d_prover_still_flags_unverifiable_buffer() {
    // Same indexing, but the constructor takes the buffer from the
    // caller, so no length invariant is established and the index
    // obligation cannot be discharged.
    let src = "pub struct Grid {\n\
               \x20   data: Vec<f32>,\n\
               \x20   rows: usize,\n\
               \x20   cols: usize,\n\
               }\n\
               \n\
               impl Grid {\n\
               \x20   pub fn wrap(data: Vec<f32>, rows: usize, cols: usize) -> Grid {\n\
               \x20       Grid { data, rows, cols }\n\
               \x20   }\n\
               \n\
               \x20   pub fn sum(&self) -> f32 {\n\
               \x20       let mut acc = 0.0;\n\
               \x20       for r in 0..self.rows {\n\
               \x20           for c in 0..self.cols {\n\
               \x20               acc += self.data[r * self.cols + c];\n\
               \x20           }\n\
               \x20       }\n\
               \x20       acc\n\
               \x20   }\n\
               }\n";
    let (findings, _) = analyze(&[(TENSOR, src)]);
    let s1 = rule(&findings, "S1");
    assert_eq!(s1.len(), 1, "{findings:#?}");
    assert_eq!(s1[0].line, 16);
    assert_eq!(
        s1[0].message,
        "unchecked index `self.data[r*self.cols+c]` reachable from \
         public API via tensor::Grid::sum"
    );
}

// --- Layer 4: C1 data-race freedom -----------------------------------------

#[test]
fn c1_flags_shared_mut_capture_with_exact_line_and_chain() {
    let src = r#"
pub fn step(out: &mut Vec<f32>) {
    rayon::scope(|s| {
        s.spawn(move |_| {
            out[0] = 1.0;
        });
        s.spawn(move |_| {
            out[0] = 2.0;
        });
    });
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let c1 = rule(&findings, "C1");
    assert_eq!(c1.len(), 1, "{findings:#?}");
    assert_eq!(c1[0].file, CORE);
    assert_eq!(c1[0].line, 4);
    // The diagnostic names BOTH capture chains so the overlap is
    // auditable without re-running the analysis.
    assert!(
        c1[0].message.contains("`out` via spawn@4 -> out (line 4)"),
        "first chain missing: {}",
        c1[0].message
    );
    assert!(
        c1[0].message.contains("`out` via spawn@7 -> out (line 7)"),
        "second chain missing: {}",
        c1[0].message
    );
}

#[test]
fn c1_passes_disjoint_chunks_mut_partition() {
    let src = r#"
pub fn par_blocks(out: &mut [f32], n: usize, rows_per: usize) {
    rayon::scope(|scope| {
        for (chunk_idx, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let row0 = chunk_idx * rows_per;
            scope.spawn(move |_| {
                let rows = chunk.len() / n.max(1);
                for v in chunk.iter_mut() {
                    *v = (row0 + rows) as f32;
                }
            });
        }
    });
}
"#;
    let (findings, _) = analyze(&[(TENSOR, src)]);
    assert!(
        rule(&findings, "C1").is_empty(),
        "chunks_mut row blocks must prove disjoint: {findings:#?}"
    );
}

#[test]
fn c1_passes_round_robin_bucket_pattern() {
    // Miniature of the engine's sharded scope: round-robin buckets of
    // &mut result slots, one spawn per worker, per-worker workspace
    // slots, and a let-closure worker body captured by reference.
    let src = r#"
pub fn engine(slots: &mut Vec<Option<f32>>, ws_slots: &mut [f32], workers: usize) {
    let run_shard = |i: usize, ws: &mut f32| {
        *ws += i as f32;
        Some(*ws)
    };
    let mut buckets: Vec<Vec<(usize, &mut Option<f32>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        buckets[i % workers].push((i, slot));
    }
    let run_shard = &run_shard;
    rayon::scope(|scope| {
        for (bucket, ws) in buckets.into_iter().zip(ws_slots.iter_mut()) {
            scope.spawn(move |_| {
                for (i, slot) in bucket {
                    *slot = Some(run_shard(i, ws));
                }
            });
        }
    });
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let conc: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "C1" || f.rule == "C2")
        .collect();
    assert!(
        conc.is_empty(),
        "bucket pattern must prove clean: {findings:#?}"
    );
}

// --- Layer 4: C2 deterministic merge order ---------------------------------

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

#[test]
fn c2_flags_cross_closure_write_read() {
    let src = r#"
pub fn bad(state: &mut Vec<f32>, out: &mut [f32]) {
    rayon::scope(|s| {
        s.spawn(move |_| {
            state[0] = 1.0;
        });
        s.spawn(move |_| {
            out[0] = state[0];
        });
    });
}
"#;
    let (findings, _) = analyze(&[(CORE, src)]);
    let c2 = rule(&findings, "C2");
    assert_eq!(c2.len(), 1, "{findings:#?}");
    assert_eq!(c2[0].line, 4);
    assert!(
        c2[0].message.contains("`state` via spawn@4 -> state"),
        "{}",
        c2[0].message
    );
}

// --- Layer 4: C3 synchronization discipline --------------------------------

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
