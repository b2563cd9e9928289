//! What a run prints: named metrics with units, output checks, the
//! result line the driver reads, and the comparison of two sets of
//! runs.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Mirrors `end_to_end` of `BENCHMARK.json` (tests/contract.rs keeps
/// the two equal). One bound per metric across workloads, so each is
/// the widest any workload needs — three times the largest interquartile
/// spread seen over ten batch seeds: the sharded engine's 5 % for the
/// timings, `cls-long-combined`'s 4.8 % for the final loss.
pub const END_TO_END: [Bounded; 7] = [
    Bounded {
        name: "tokens_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    Bounded {
        name: "step_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    Bounded {
        name: "time_to_target_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    Bounded {
        name: "final_loss",
        unit: "loss",
        better: Better::Lower,
        bound: 0.15,
    },
    Bounded {
        name: "eval_tokens_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
    },
    Bounded {
        name: "peak_heap_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    Bounded {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Skipped(&'static str),
}

/// One output check; a failed one fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    verdict: Verdict,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Self {
        let verdict = if pass { Verdict::Pass } else { Verdict::Fail };
        Check {
            name,
            verdict,
            detail,
        }
    }

    /// The check cannot be judged in this run (and does not fail it).
    pub fn skipped(mut self, why: &'static str) -> Self {
        self.verdict = Verdict::Skipped(why);
        self
    }

    pub fn failed(&self) -> bool {
        self.verdict == Verdict::Fail
    }
}

/// One workload's run, as printed.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    /// Operations attempted: train steps plus held-out batches.
    pub attempted: usize,
    /// Operations that returned `Err`, produced a non-finite loss, or
    /// belong to a failed check.
    pub failed: usize,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.iter().any(Check::failed)
    }

    fn metrics_value(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|m| {
                    let entry = Value::Map(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// `correct`, `attempted`, `failed`, `metrics`: exactly the keys the
    /// driver expects.
    fn result_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted as u64)),
            ("failed".into(), Value::UInt(self.failed as u64)),
            ("metrics".into(), self.metrics_value()),
        ]
    }

    /// The object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> Result<String, String> {
        serde_json::to_string(&Value::Map(self.result_fields()))
            .map_err(|e| format!("{}: result line: {e}", self.workload))
    }

    /// The same result with its workload and seed, one line of a
    /// run-set file (`--out`).
    fn record_line(&self) -> Result<String, String> {
        let mut fields = vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::UInt(self.seed)),
        ];
        fields.extend(self.result_fields());
        serde_json::to_string(&Value::Map(fields))
            .map_err(|e| format!("{}: record: {e}", self.workload))
    }

    /// Appends this run to a run-set file for `eta-e2e compare`.
    pub fn append_to(&self, path: &str) -> Result<(), String> {
        let line = self.record_line()?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
    }

    /// Every metric once, by name, with its unit; then the operation
    /// counts and the checks.
    pub fn print_table(&self, notes: &[String]) {
        println!("== {} (seed {}) ==", self.workload, self.seed);
        for m in &self.metrics {
            let bound = END_TO_END
                .iter()
                .find(|b| b.name == m.name)
                .map_or(String::new(), |b| {
                    format!("  [bound {:.0} %]", b.bound * 100.0)
                });
            println!("  {:<44} {:>18.6} {}{bound}", m.name, m.value, m.unit);
        }
        println!("  {:<44} {:>18} count", "ops_attempted", self.attempted);
        println!("  {:<44} {:>18} count", "ops_failed", self.failed);
        for c in &self.checks {
            let verdict = match c.verdict {
                Verdict::Pass => "ok".to_string(),
                Verdict::Fail => "FAILED".to_string(),
                Verdict::Skipped(why) => format!("skipped ({why})"),
            };
            println!("  check {:<28} {verdict}: {}", c.name, c.detail);
        }
        for n in notes {
            println!("  {n}");
        }
    }
}

/// `workload -> metric -> values`, one value per run in the file.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_run_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| at(&e.to_string()))?;
        let Some(Value::Str(workload)) = v.get("workload") else {
            return Err(at("no workload"));
        };
        let Some(Value::Map(metrics)) = v.get("metrics") else {
            return Err(at("no metrics"));
        };
        for (name, entry) in metrics {
            let value = match entry.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(at("metric without a numeric value")),
            };
            set.entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Median and interquartile distance as a share of the median.
fn centre_and_spread(values: &[f64]) -> (f64, f64) {
    match stats::quartiles(values) {
        Some((q1, med, q3)) => (med, (q3 - q1) / med.abs()),
        None => (stats::median(values), 0.0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    /// Spread wider than the bound, so the medians decide nothing —
    /// unless every run of B reads better than every run of A.
    Unresolved,
}

/// Judges one (workload, metric) pairing: `a` is the base.
pub fn judge(metric: &Bounded, a: &[f64], b: &[f64]) -> (f64, f64, f64, Status) {
    let (med_a, spread_a) = centre_and_spread(a);
    let (med_b, spread_b) = centre_and_spread(b);
    let diff = (med_b - med_a) / med_a.abs();
    let worse_by = match metric.better {
        Better::Lower => diff,
        Better::Higher => -diff,
    };
    let all_better = match metric.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let status = if spread_a.max(spread_b) > metric.bound && !all_better {
        Status::Unresolved
    } else if worse_by > metric.bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (med_a, med_b, diff, status)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `eta-e2e compare A B`: one row per (workload, end-to-end metric).
/// Returns whether every row is `ok`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_run_set(path_a)?, read_run_set(path_b)?);
    println!(
        "{:<20} {:<20} {:>16} {:>16} {:>10} {:>7}  status   (diff relative to A = {path_a})",
        "workload", "metric", "A median", "B median", "diff", "bound"
    );
    let mut all_ok = true;
    for (workload, metrics_a) in &a {
        for metric in &END_TO_END {
            let va = metrics_a.get(metric.name);
            let vb = b.get(workload).and_then(|m| m.get(metric.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{workload:<20} {:<20} missing in one set", metric.name);
                all_ok = false;
                continue;
            };
            let (med_a, med_b, diff, status) = judge(metric, va, vb);
            all_ok &= status == Status::Ok;
            println!(
                "{workload:<20} {:<20} {med_a:>16.6} {med_b:>16.6} {:>+9.2}% {:>6.0}%  {}  (n={}/{})",
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "regressed",
                    Status::Unresolved => "unresolved",
                },
                va.len(),
                vb.len()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bounded = Bounded {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
    };
    const HIGHER: Bounded = Bounded {
        name: "r",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(judge(&LOWER, &a, &[1.02, 1.03, 1.02, 1.03]).3, Status::Ok);
        assert_eq!(
            judge(&LOWER, &a, &[1.10, 1.11, 1.10, 1.11]).3,
            Status::Regressed
        );
        assert_eq!(judge(&HIGHER, &a, &[1.10, 1.11, 1.10, 1.11]).3, Status::Ok);
        assert_eq!(
            judge(&HIGHER, &a, &[0.90, 0.91, 0.90, 0.91]).3,
            Status::Regressed
        );
        // Spread wider than the bound: the medians decide nothing...
        let noisy = [0.8, 1.0, 1.2, 1.0];
        assert_eq!(judge(&LOWER, &a, &noisy).3, Status::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(judge(&LOWER, &a, &[0.5, 0.7, 0.9, 0.6]).3, Status::Ok);
    }
}
