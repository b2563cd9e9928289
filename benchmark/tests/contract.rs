//! The printed output against `BENCHMARK.json`: every workload and
//! metric the file names is printed exactly once, by that name, with
//! that unit — and nothing the file does not name.

use eta_e2e_bench::report::{Better, END_TO_END};
use eta_e2e_bench::spec::{NOMINAL_SECONDS, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json {key}: expected a list, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every metric row in a printed table, per workload.
/// A metric row is `  <name> <value> <unit>` under a `== workload (seed N) ==`
/// heading; rows that are not metrics start with a known label.
fn printed(stdout: &str) -> BTreeMap<String, Vec<(String, String)>> {
    let mut tables: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            let name = rest
                .split(' ')
                .next()
                .expect("workload heading")
                .to_string();
            assert!(
                tables.insert(name.clone(), Vec::new()).is_none(),
                "{name} printed twice"
            );
            current = Some(name);
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(w), [name, value, unit, ..]) = (&current, fields.as_slice()) else {
            continue;
        };
        if line.starts_with("  ")
            && valid_name(name)
            && value.parse::<f64>().is_ok()
            && !name.starts_with("ops_")
        {
            tables
                .get_mut(w)
                .expect("current table")
                .push((name.to_string(), unit.to_string()));
        }
    }
    tables
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("ETA_THREADS")
        .env_remove("ETA_SIMD")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_matches(printed: &[(String, String)], declared: &[Value], what: &str) {
    let want: Vec<(String, String)> = declared
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect();
    let mut got = printed.to_vec();
    let mut sorted_want = want.clone();
    got.sort();
    sorted_want.sort();
    assert_eq!(
        got, sorted_want,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_is_within_the_contract() {
    let b = benchmark_json();
    let (workloads, e2e, layers) = (
        seq(&b, "workloads"),
        seq(&b, "end_to_end"),
        seq(&b, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<&str> = Vec::new();
    for item in workloads.iter().chain(e2e).chain(layers) {
        let name = text(item, "name");
        assert!(valid_name(name), "bad name {name:?}");
        names.push(name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert_eq!(b.get("run_seconds"), Some(&Value::UInt(NOMINAL_SECONDS)));
    assert!(e2e
        .iter()
        .any(|m| text(m, "name") == "setup_s" && text(m, "unit") == "s"));
}

#[test]
fn code_and_benchmark_json_agree() {
    let b = benchmark_json();
    let declared: Vec<(&str, &str)> = seq(&b, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, coded);
    for (m, coded) in seq(&b, "end_to_end").iter().zip(&END_TO_END) {
        assert_eq!(text(m, "name"), coded.name);
        assert_eq!(text(m, "unit"), coded.unit);
        let better = match coded.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        assert_eq!(text(m, "better"), better, "{}", coded.name);
        assert_eq!(
            m.get("bound"),
            Some(&Value::Float(coded.bound)),
            "{}",
            coded.name
        );
    }
    assert_eq!(seq(&b, "end_to_end").len(), END_TO_END.len());
}

#[test]
fn quick_end_to_end_run_prints_every_metric_once() {
    let b = benchmark_json();
    let stdout = run(env!("CARGO_BIN_EXE_eta-e2e"), &["--all", "--quick"]);
    let tables = printed(&stdout);
    let declared: Vec<&str> = seq(&b, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(tables.keys().map(String::as_str).collect::<Vec<_>>(), {
        let mut d = declared.clone();
        d.sort_unstable();
        d
    });
    for (workload, rows) in &tables {
        assert_matches(rows, seq(&b, "end_to_end"), workload);
        assert!(stdout.contains("ops_attempted") && stdout.contains("ops_failed"));
    }
}

#[test]
fn quick_traced_run_prints_every_layer_metric_once() {
    let b = benchmark_json();
    // Every workload prints the same list; the toy is the one that takes
    // a second.
    let stdout = run(
        env!("CARGO_BIN_EXE_eta-e2e-layers"),
        &["--workload", "toy-scaled-imdb", "--quick", "--trace", "1"],
    );
    let tables = printed(&stdout);
    assert_matches(
        &tables["toy-scaled-imdb"],
        seq(&b, "per_layer"),
        "toy-scaled-imdb",
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is the result object");
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("result line has no metrics: {last}");
    };
    assert_eq!(metrics.len(), seq(&b, "per_layer").len());
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn engine_variables_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_eta-e2e"))
        .args(["--workload", "toy-scaled-imdb", "--quick"])
        .env("ETA_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ETA_THREADS"));
}
