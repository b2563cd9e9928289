//! `lint.toml` — the allowlist for justified rule exceptions.
//!
//! The workspace has no TOML crate (offline build), so this module
//! parses exactly the subset the allowlist uses: `[[allow]]` array
//! tables with `key = "string"` / `key = integer` pairs and `#`
//! comments. Every entry must name a rule, an existing file, and a
//! non-empty justification; entries may pin a specific line. An entry
//! without `line` covers every finding of that rule in that file.

use std::path::Path;

#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    /// 1-indexed line this entry is pinned to; `None` covers the file.
    pub line: Option<u32>,
    pub reason: String,
    /// Line in lint.toml where the entry starts (for diagnostics).
    pub defined_at: u32,
}

const KNOWN_RULES: &[&str] = &[
    "D1", "D2", "A1", "T1", "S1", "S2", "S3", "H1", "A2", "R1", "C2", "C3",
];

/// Parses allowlist text. `root` anchors the existence check for
/// `file` fields; a missing file is a hard error so stale entries
/// cannot silently rot (and so typoed paths fail loudly).
pub fn parse(text: &str, root: &Path) -> Result<Vec<AllowEntry>, String> {
    struct Partial {
        rule: Option<String>,
        file: Option<String>,
        line: Option<u32>,
        reason: Option<String>,
        defined_at: u32,
    }

    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;

    let finish = |p: Partial, entries: &mut Vec<AllowEntry>| -> Result<(), String> {
        let at = p.defined_at;
        let rule = p
            .rule
            .ok_or_else(|| format!("lint.toml:{at}: entry is missing `rule`"))?;
        let file = p
            .file
            .ok_or_else(|| format!("lint.toml:{at}: entry is missing `file`"))?;
        let reason = p
            .reason
            .ok_or_else(|| format!("lint.toml:{at}: entry is missing `reason`"))?;
        if !KNOWN_RULES.contains(&rule.as_str()) {
            return Err(format!(
                "lint.toml:{at}: unknown rule `{rule}` (expected one of {KNOWN_RULES:?})"
            ));
        }
        if reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{at}: `reason` must be a non-empty justification"
            ));
        }
        if !root.join(&file).is_file() {
            return Err(format!(
                "lint.toml:{at}: allowlisted file `{file}` does not exist under the \
                 workspace root — remove the stale entry or fix the path"
            ));
        }
        entries.push(AllowEntry {
            rule,
            file,
            line: p.line,
            reason,
            defined_at: at,
        });
        Ok(())
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                finish(p, &mut entries)?;
            }
            current = Some(Partial {
                rule: None,
                file: None,
                line: None,
                reason: None,
                defined_at: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "lint.toml:{lineno}: expected `key = value` or `[[allow]]`, got `{line}`"
            ));
        };
        let Some(p) = current.as_mut() else {
            return Err(format!(
                "lint.toml:{lineno}: `{}` outside an [[allow]] entry",
                key.trim()
            ));
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "rule" => p.rule = Some(parse_string(value, lineno)?),
            "file" => p.file = Some(parse_string(value, lineno)?),
            "reason" => p.reason = Some(parse_string(value, lineno)?),
            "line" => {
                p.line = Some(value.parse::<u32>().map_err(|_| {
                    format!("lint.toml:{lineno}: `line` must be an integer, got `{value}`")
                })?)
            }
            other => {
                return Err(format!(
                    "lint.toml:{lineno}: unknown key `{other}` (expected rule/file/line/reason)"
                ))
            }
        }
    }
    if let Some(p) = current.take() {
        finish(p, &mut entries)?;
    }
    Ok(entries)
}

/// Drops a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '\\' if in_str => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_string(value: &str, lineno: u32) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a quoted string, got `{value}`"))?;
    Ok(inner.replace("\\\"", "\""))
}

impl AllowEntry {
    pub fn matches(&self, finding: &crate::rules::Finding) -> bool {
        self.rule == finding.rule
            && self.file == finding.file
            && self.line.is_none_or(|l| l == finding.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        // crates/lint -> workspace root, which certainly has Cargo.toml.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn parses_entries_with_comments_and_optional_line() {
        let text = r##"
# header comment
[[allow]]
rule = "S1"                       # trailing comment
file = "crates/lint/src/lib.rs"
reason = "audit: # in strings ok"
[[allow]]
rule = "D2"
file = "crates/lint/src/lexer.rs"
line = 42
reason = "pinned"
"##;
        let entries = parse(text, &root()).expect("parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "S1");
        assert_eq!(entries[0].line, None);
        assert_eq!(entries[0].reason, "audit: # in strings ok");
        assert_eq!(entries[1].line, Some(42));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let text = "[[allow]]\nrule = \"S1\"\nfile = \"crates/lint/src/lib.rs\"\n";
        let err = parse(text, &root()).expect_err("must fail");
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn nonexistent_file_is_an_error() {
        let text = "[[allow]]\nrule = \"S1\"\nfile = \"crates/nope/src/lib.rs\"\nreason = \"x\"\n";
        let err = parse(text, &root()).expect_err("must fail");
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let text = "[[allow]]\nrule = \"Z9\"\nfile = \"crates/lint/src/lib.rs\"\nreason = \"x\"\n";
        let err = parse(text, &root()).expect_err("must fail");
        assert!(err.contains("unknown rule"), "{err}");
    }
}
