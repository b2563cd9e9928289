//! eta-lint CLI.
//!
//! ```text
//! cargo run -p eta-lint                      # text diagnostics, exit 1 on findings
//! cargo run -p eta-lint -- --format json     # JSON report on stdout
//! cargo run -p eta-lint -- --format json --output report.json
//! cargo run -p eta-lint -- --root /path/to/workspace
//! ```
//!
//! Exit codes: 0 clean, 1 unallowlisted findings, 2 configuration or
//! I/O error (bad lint.toml, unreadable files, unknown flags).

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format: Format,
    output: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Text,
        output: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().as_deref() {
                Some("text") => args.format = Format::Text,
                Some("json") => args.format = Format::Json,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--output" => {
                let v = it.next().ok_or("--output requires a path")?;
                args.output = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "eta-lint — workspace static analysis for the eta-LSTM contracts\n\n\
                     USAGE: eta-lint [--root DIR] [--format text|json] [--output FILE]\n\n\
                     Token rules: D1 hash-ordered collections in numeric crates; D2 entropy\n\
                     sources outside telemetry+bench+prof; A1 unsafe needs // SAFETY:;\n\
                     T1 telemetry keys from eta_telemetry::keys.\n\
                     Semantic rules (AST + call graph): S1 panic-capable sites reachable\n\
                     from public numeric APIs (diagnostic shows the call chain); S2 clock/\n\
                     entropy/hash-order taint reaching numerics or telemetry; S3 registered\n\
                     telemetry keys never emitted (warning only).\n\
                     H1 raw Vec/Box/String/clone allocations reachable on the per-timestep\n\
                     hot path; A2 std::arch intrinsic hygiene (target_feature, runtime\n\
                     detect + scalar fallback, // SAFETY:); C2 deterministic merge order\n\
                     (no channel merges, atomic float accumulation or unordered float\n\
                     reductions); C3 locks/atomics in numeric crates need a // SYNC:\n\
                     justification. R1 stray .proptest-regressions seed files.\n\
                     Exceptions: lint.toml at the workspace root (rule/file/[line]/reason)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eta-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| eta_lint::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("eta-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match eta_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eta-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match args.format {
        Format::Text => report.render_text(),
        Format::Json => match serde_json::to_string_pretty(&report) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("eta-lint: serializing report: {e}");
                return ExitCode::from(2);
            }
        },
    };

    if let Some(path) = &args.output {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("eta-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if args.format == Format::Text {
            // Still summarize to stderr so CI logs show the verdict.
            eprintln!(
                "eta-lint: {} finding(s) written to {}",
                report.findings.len(),
                path.display()
            );
        }
    } else {
        print!("{rendered}");
        if args.format != Format::Text {
            println!();
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
