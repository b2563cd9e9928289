//! Perf-trajectory tracking: append-only bench history and the
//! regression gate.
//!
//! Every bench run appends one [`BenchRecord`] per tracked metric to
//! `results/bench_history.jsonl` (one JSON object per line — easy to
//! diff, append-merge, and read without schema migrations). The gate
//! ([`compare`]) takes the *last committed* record per `(bench,
//! label)` key as the baseline and fails when a current median is
//! slower than `baseline × (1 + threshold)`; metrics with no baseline
//! pass (a new shape cannot regress). The `eta-bench-track` binary
//! fronts both operations for CI.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One tracked bench measurement at one commit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchRecord {
    /// Git revision the run was taken at (`unknown` outside a repo).
    pub git_sha: String,
    /// Bench harness name (e.g. `gemm_packed`).
    pub bench: String,
    /// Metric label within the bench (e.g. `nt m128 k2048 n8192`).
    pub label: String,
    /// Median wall seconds (the gated quantity — lower is better).
    pub median_seconds: f64,
    /// Achieved GFLOP/s at the median.
    pub gflops: f64,
    /// Speedup vs the bench's own reference (1.0 when not applicable).
    pub speedup: f64,
}

impl BenchRecord {
    fn key(&self) -> (String, String) {
        (self.bench.clone(), self.label.clone())
    }
}

/// Appends records to a JSONL history file (created if missing).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in records {
        let line = serde_json::to_string(r)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(file, "{line}")?;
    }
    Ok(())
}

/// Reads a JSONL history file; a missing file is an empty history.
///
/// # Errors
///
/// Propagates filesystem errors and malformed-line parse errors (a
/// corrupt history should fail loudly, not silently drop baselines).
pub fn read(path: &Path) -> std::io::Result<Vec<BenchRecord>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: BenchRecord = serde_json::from_str(line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), lineno + 1),
            )
        })?;
        records.push(record);
    }
    Ok(records)
}

/// Extracts tracked records from the per-shape `BENCH_gemm.json`
/// schema (top-level `bench` name + `shapes` array, each shape with
/// `label`, `packed_seconds`, `gflops`, `speedup`), stamping them with
/// `git_sha`.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn records_from_bench_json(text: &str, git_sha: &str) -> Result<Vec<BenchRecord>, String> {
    let root: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let bench = root
        .get("bench")
        .and_then(serde::Value::as_str)
        .ok_or("missing top-level `bench` name")?;
    let shapes = match root.get("shapes") {
        Some(serde::Value::Seq(shapes)) => shapes,
        _ => return Err("missing `shapes` array".to_string()),
    };
    let mut records = Vec::with_capacity(shapes.len());
    for (i, shape) in shapes.iter().enumerate() {
        let str_field = |key: &str| -> Result<&str, String> {
            shape
                .get(key)
                .and_then(serde::Value::as_str)
                .ok_or_else(|| format!("shapes[{i}]: missing string `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            shape
                .get(key)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("shapes[{i}]: missing number `{key}`"))
        };
        records.push(BenchRecord {
            git_sha: git_sha.to_string(),
            bench: bench.to_string(),
            label: str_field("label")?.to_string(),
            median_seconds: num_field("packed_seconds")?,
            gflops: num_field("gflops")?,
            speedup: num_field("speedup")?,
        });
    }
    Ok(records)
}

/// Extracts `(label, roof fraction)` pairs from a `roofline.json`
/// report: one entry per measured cell kernel (`kernel nt` …) and one
/// per LN5–LN8 training-step shape (`shape LN5` …). The fraction is
/// the report's `efficiency` field (achieved / roof GFLOP/s), which is
/// what the roofline gate tracks — it is stable across machines in a
/// way raw GFLOP/s is not.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn roof_fractions_from_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let root: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut fractions = Vec::new();
    let mut collect = |section: &str, name_key: &str| -> Result<(), String> {
        let entries = match root.get(section) {
            Some(serde::Value::Seq(entries)) => entries,
            _ => return Err(format!("missing `{section}` array")),
        };
        for (i, entry) in entries.iter().enumerate() {
            let name = entry
                .get(name_key)
                .and_then(serde::Value::as_str)
                .ok_or_else(|| format!("{section}[{i}]: missing string `{name_key}`"))?;
            let eff = entry
                .get("efficiency")
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("{section}[{i}]: missing number `efficiency`"))?;
            let prefix = if section == "kernels" {
                "kernel"
            } else {
                "shape"
            };
            fractions.push((format!("{prefix} {name}"), eff));
        }
        Ok(())
    };
    collect("kernels", "orientation")?;
    collect("shapes", "shape")?;
    Ok(fractions)
}

/// One roofline entry whose roof fraction fell below the baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RoofRegression {
    /// Entry label (`kernel tn`, `shape LN5`, …).
    pub label: String,
    /// Committed baseline roof fraction.
    pub baseline: f64,
    /// Current roof fraction.
    pub current: f64,
}

/// Outcome of a roofline-gate run.
#[derive(Debug, Clone)]
pub struct RooflineGateReport {
    /// Entries whose fraction fell below `baseline × (1 − slack)`.
    pub regressions: Vec<RoofRegression>,
    /// Entries compared against a baseline.
    pub compared: usize,
    /// Current entries with no baseline (new shapes — pass).
    pub fresh: usize,
    /// The relative slack the gate ran with.
    pub slack: f64,
}

impl RooflineGateReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable gate output (one line per offender).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str(&format!(
                "roofline gate PASSED: {} entr(ies) within {:.0}% of committed roof fraction ({} new)\n",
                self.compared,
                self.slack * 100.0,
                self.fresh
            ));
        } else {
            out.push_str(&format!(
                "roofline gate FAILED: {} of {} entr(ies) below committed roof fraction\n",
                self.regressions.len(),
                self.compared
            ));
            for r in &self.regressions {
                out.push_str(&format!(
                    "  {}: {:.3} -> {:.3} of roof (floor {:.3})\n",
                    r.label,
                    r.baseline,
                    r.current,
                    r.baseline * (1.0 - self.slack)
                ));
            }
        }
        out
    }
}

/// Gates current roof fractions against the committed baseline:
/// an entry fails when its fraction drops below
/// `baseline × (1 − slack)`. Entries absent from the baseline pass.
pub fn compare_roofline(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    slack: f64,
) -> RooflineGateReport {
    let base: BTreeMap<&str, f64> = baseline.iter().map(|(l, e)| (l.as_str(), *e)).collect();
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let mut fresh = 0usize;
    for (label, eff) in current {
        match base.get(label.as_str()) {
            None => fresh += 1,
            Some(b) => {
                compared += 1;
                if *eff < b * (1.0 - slack) {
                    regressions.push(RoofRegression {
                        label: label.clone(),
                        baseline: *b,
                        current: *eff,
                    });
                }
            }
        }
    }
    RooflineGateReport {
        regressions,
        compared,
        fresh,
        slack,
    }
}

/// The most recent record per `(bench, label)` key — the baseline set.
pub fn baselines(history: &[BenchRecord]) -> BTreeMap<(String, String), BenchRecord> {
    let mut map = BTreeMap::new();
    for r in history {
        map.insert(r.key(), r.clone());
    }
    map
}

/// One metric that regressed beyond the threshold.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Regression {
    /// Bench harness name.
    pub bench: String,
    /// Metric label.
    pub label: String,
    /// Baseline median seconds (and the sha it came from).
    pub baseline_seconds: f64,
    /// Baseline git revision.
    pub baseline_sha: String,
    /// Current median seconds.
    pub current_seconds: f64,
    /// `current / baseline - 1`.
    pub slowdown: f64,
}

/// Outcome of a gate run.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Metrics slower than `baseline × (1 + threshold)`.
    pub regressions: Vec<Regression>,
    /// Metrics compared against a baseline.
    pub compared: usize,
    /// Current metrics with no baseline (new shapes — pass).
    pub fresh: usize,
    /// The threshold the gate ran with.
    pub threshold: f64,
}

impl CompareReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable gate output (one line per offender).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str(&format!(
                "perf gate PASSED: {} metric(s) within {:.0}% of baseline ({} new)\n",
                self.compared,
                self.threshold * 100.0,
                self.fresh
            ));
        } else {
            out.push_str(&format!(
                "perf gate FAILED: {} of {} metric(s) regressed beyond {:.0}%\n",
                self.regressions.len(),
                self.compared,
                self.threshold * 100.0
            ));
            for r in &self.regressions {
                out.push_str(&format!(
                    "  {} / {}: {:.6}s -> {:.6}s (+{:.1}%, baseline @ {})\n",
                    r.bench,
                    r.label,
                    r.baseline_seconds,
                    r.current_seconds,
                    r.slowdown * 100.0,
                    r.baseline_sha
                ));
            }
        }
        out
    }
}

/// Gates `current` against the last committed baseline per metric.
pub fn compare(history: &[BenchRecord], current: &[BenchRecord], threshold: f64) -> CompareReport {
    let base = baselines(history);
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let mut fresh = 0usize;
    for cur in current {
        match base.get(&cur.key()) {
            None => fresh += 1,
            Some(b) => {
                compared += 1;
                if cur.median_seconds > b.median_seconds * (1.0 + threshold) {
                    regressions.push(Regression {
                        bench: cur.bench.clone(),
                        label: cur.label.clone(),
                        baseline_seconds: b.median_seconds,
                        baseline_sha: b.git_sha.clone(),
                        current_seconds: cur.median_seconds,
                        slowdown: cur.median_seconds / b.median_seconds - 1.0,
                    });
                }
            }
        }
    }
    CompareReport {
        regressions,
        compared,
        fresh,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, sha: &str, median: f64) -> BenchRecord {
        BenchRecord {
            git_sha: sha.to_string(),
            bench: "gemm_packed".to_string(),
            label: label.to_string(),
            median_seconds: median,
            gflops: 10.0,
            speedup: 2.0,
        }
    }

    #[test]
    fn identical_run_passes_the_gate() {
        let history = vec![record("nt", "aaa", 0.100)];
        let current = vec![record("nt", "bbb", 0.100)];
        let report = compare(&history, &current, 0.10);
        assert!(report.passed());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn injected_twenty_percent_regression_fails_a_ten_percent_gate() {
        let history = vec![record("nt", "aaa", 0.100), record("nn", "aaa", 0.200)];
        // Synthetic regression: the nt median inflated by 20%.
        let current = vec![record("nt", "bbb", 0.120), record("nn", "bbb", 0.200)];
        let report = compare(&history, &current, 0.10);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.label, "nt");
        assert!((r.slowdown - 0.20).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("FAILED") && text.contains("nt"), "{text}");
    }

    #[test]
    fn last_record_per_key_is_the_baseline() {
        let history = vec![
            record("nt", "old", 0.050),
            record("nt", "new", 0.200), // later commit re-baselined slower
        ];
        let current = vec![record("nt", "cur", 0.210)];
        assert!(compare(&history, &current, 0.10).passed());
    }

    #[test]
    fn fresh_metrics_pass_without_baseline() {
        let report = compare(&[], &[record("nt", "x", 1.0)], 0.10);
        assert!(report.passed());
        assert_eq!(report.fresh, 1);
        assert_eq!(report.compared, 0);
    }

    /// A scratch directory private to one test of one process.
    fn test_dir(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eta_prof_track_{test}_{}", std::process::id()))
    }

    #[test]
    fn history_round_trips_through_jsonl() {
        let dir = test_dir("round_trip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        std::fs::remove_file(&path).ok();
        append(&path, &[record("nt", "aaa", 0.1)]).unwrap();
        append(&path, &[record("nt", "bbb", 0.2)]).unwrap();
        let history = read(&path).unwrap();
        assert_eq!(history.len(), 2);
        let base = baselines(&history);
        let key = ("gemm_packed".to_string(), "nt".to_string());
        assert_eq!(base.get(&key).unwrap().git_sha, "bbb");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_history_fails_loudly() {
        let dir = test_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_history_reads_empty() {
        let path = test_dir("missing").join("none.jsonl");
        assert!(read(&path).unwrap().is_empty());
    }

    const ROOFLINE_JSON: &str = r#"{
        "machine": {"peak_gflops": 80.0, "mem_bw_gbps": 11.0},
        "kernels": [
            {"orientation": "tn", "m": 8192, "k": 128, "n": 2048,
             "flops": 1, "bytes": 1, "intensity": 59.0,
             "achieved_gflops": 45.0, "roof_gflops": 80.0,
             "efficiency": 0.57, "speedup": 7.4}
        ],
        "shapes": [
            {"shape": "LN5", "layers": 5, "hidden": 2048, "seq_len": 256,
             "batch": 128, "flops": 1, "traffic_bytes": 1,
             "intensity": 1218.0, "achieved_gflops": 53.5,
             "roof_gflops": 80.0, "efficiency": 0.67}
        ]
    }"#;

    #[test]
    fn roofline_json_yields_prefixed_fractions() {
        let fractions = roof_fractions_from_json(ROOFLINE_JSON).unwrap();
        assert_eq!(fractions.len(), 2);
        assert_eq!(fractions[0], ("kernel tn".to_string(), 0.57));
        assert_eq!(fractions[1], ("shape LN5".to_string(), 0.67));
        assert!(roof_fractions_from_json("{}").is_err());
    }

    #[test]
    fn roofline_gate_passes_within_slack_and_fails_below() {
        let baseline = vec![("shape LN5".to_string(), 0.67)];
        // 5% below baseline is inside a 10% slack…
        let ok = compare_roofline(&baseline, &[("shape LN5".to_string(), 0.64)], 0.10);
        assert!(ok.passed());
        assert_eq!(ok.compared, 1);
        // …but 20% below is not.
        let bad = compare_roofline(&baseline, &[("shape LN5".to_string(), 0.53)], 0.10);
        assert!(!bad.passed());
        assert_eq!(bad.regressions[0].label, "shape LN5");
        assert!(bad.render().contains("FAILED"), "{}", bad.render());
    }

    #[test]
    fn roofline_gate_passes_fresh_entries() {
        let report = compare_roofline(&[], &[("shape LN9".to_string(), 0.1)], 0.10);
        assert!(report.passed());
        assert_eq!(report.fresh, 1);
    }

    #[test]
    fn bench_json_converts_to_records() {
        let text = r#"{
            "bench": "gemm_packed",
            "machine": {"peak_gflops": 40.0, "mem_bw_gbps": 12.0},
            "shapes": [
                {"label": "nt m128 k2048 n8192", "orientation": "nt",
                 "m": 128, "k": 2048, "n": 8192,
                 "naive_seconds": 0.4, "packed_seconds": 0.1,
                 "gflops": 42.9, "speedup": 4.0}
            ]
        }"#;
        let records = records_from_bench_json(text, "abc123").unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].bench, "gemm_packed");
        assert_eq!(records[0].label, "nt m128 k2048 n8192");
        assert_eq!(records[0].git_sha, "abc123");
        assert_eq!(records[0].median_seconds, 0.1);
        assert!(records_from_bench_json("{}", "x").is_err());
    }
}
