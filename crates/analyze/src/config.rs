//! The `analyze.toml` configuration: the allowlist plus the declared
//! interprocedural root set and lock order.
//!
//! Format (a strict TOML subset, parsed in-house because the workspace
//! vendors no TOML crate):
//!
//! ```toml
//! # Hot-path entry points for the L2/L5 reachability closure.
//! [interproc]
//! roots = [
//!     "SatSolver::solve",
//!     "JitDecoder::decode",
//! ]
//!
//! # Global lock acquisition order for L6 (outermost first).
//! [locks]
//! order = ["conns", "conn"]
//!
//! [[allow]]
//! lint = "L2-index"
//! path = "crates/smt/src/sat.rs"
//! # line = 123           # optional: restrict to a single line
//! reason = "watched-literal arrays are sized at var allocation"
//! ```
//!
//! Policy, enforced here rather than by convention:
//!
//! * `reason` is **mandatory and non-empty** — a suppression without a
//!   written justification is a configuration error (exit code 2), not a
//!   warning.
//! * Unknown keys and unknown sections are configuration errors, so typos
//!   (`lnit = …`) cannot silently disable a suppression.
//! * Entries that match no finding are reported as stale; with
//!   `--deny-stale` (CI) they fail the run, so the allowlist only shrinks.

use std::fmt;

/// One `[[allow]]` entry from `analyze.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name, e.g. `"L1-hash-collection"`.
    pub lint: String,
    /// Workspace-relative path with forward slashes, e.g.
    /// `"crates/smt/src/sat.rs"`.
    pub path: String,
    /// If set, the suppression covers only this 1-based line.
    pub line: Option<u32>,
    /// Mandatory human-written justification.
    pub reason: String,
    /// Line in `analyze.toml` where the entry starts (for diagnostics).
    pub defined_at: u32,
}

/// The parsed configuration.
#[derive(Debug, Default, Clone)]
pub struct AnalyzeConfig {
    /// All `[[allow]]` entries in file order.
    pub entries: Vec<AllowEntry>,
    /// `[interproc] roots`: entry points of the panic-freedom closure,
    /// as `Owner::name` or bare `name` specs.
    pub roots: Vec<String>,
    /// `[locks] order`: the global lock acquisition order, outermost
    /// first, as guard receiver names.
    pub lock_order: Vec<String>,
}

/// A configuration error: malformed `analyze.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in `analyze.toml`.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyze.toml:{}: {}", self.line, self.message)
    }
}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

#[derive(Default)]
struct PartialEntry {
    lint: Option<String>,
    path: Option<String>,
    line: Option<u32>,
    reason: Option<String>,
    defined_at: u32,
}

impl PartialEntry {
    fn finish(self) -> Result<AllowEntry, ConfigError> {
        let at = self.defined_at;
        let lint = self
            .lint
            .ok_or_else(|| err(at, "[[allow]] entry is missing `lint`"))?;
        let path = self
            .path
            .ok_or_else(|| err(at, "[[allow]] entry is missing `path`"))?;
        let reason = self
            .reason
            .ok_or_else(|| err(at, "[[allow]] entry is missing a `reason` justification"))?;
        if reason.trim().is_empty() {
            return Err(err(at, "`reason` must be a non-empty justification"));
        }
        Ok(AllowEntry {
            lint,
            path,
            line: self.line,
            reason,
            defined_at: at,
        })
    }
}

enum Section {
    Top,
    Allow,
    Interproc,
    Locks,
}

/// Parse the contents of `analyze.toml`.
pub fn parse_config(src: &str) -> Result<AnalyzeConfig, ConfigError> {
    let mut out = AnalyzeConfig::default();
    let mut current: Option<PartialEntry> = None;
    let mut section = Section::Top;

    let lines: Vec<&str> = src.lines().collect();
    let mut idx = 0usize;
    while idx < lines.len() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(lines[idx]).trim().to_string();
        idx += 1;
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(partial) = current.take() {
                out.entries.push(partial.finish()?);
            }
            current = Some(PartialEntry {
                defined_at: lineno,
                ..PartialEntry::default()
            });
            section = Section::Allow;
            continue;
        }
        if line.starts_with('[') {
            if let Some(partial) = current.take() {
                out.entries.push(partial.finish()?);
            }
            section = match line.as_str() {
                "[interproc]" => Section::Interproc,
                "[locks]" => Section::Locks,
                other => {
                    let msg = format!(
                        "unexpected section `{other}`; expected [[allow]], [interproc], or [locks]"
                    );
                    return Err(err(lineno, msg));
                }
            };
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // A `[`-opened array may span lines: keep consuming until the
        // brackets balance.
        if value.starts_with('[') {
            while value.matches('[').count() > value.matches(']').count() && idx < lines.len() {
                value.push(' ');
                value.push_str(strip_comment(lines[idx]).trim());
                idx += 1;
            }
        }
        match section {
            Section::Top => {
                return Err(err(lineno, "`key = value` before the first section header"));
            }
            Section::Allow => {
                let entry = current.as_mut().ok_or_else(|| {
                    err(lineno, "`key = value` before the first [[allow]] header")
                })?;
                match key.as_str() {
                    "lint" => entry.lint = Some(parse_string(&value, lineno)?),
                    "path" => entry.path = Some(parse_string(&value, lineno)?),
                    "reason" => entry.reason = Some(parse_string(&value, lineno)?),
                    "line" => {
                        let n: u32 = value.parse().map_err(|_| {
                            err(lineno, format!("`line` must be an integer, got `{value}`"))
                        })?;
                        entry.line = Some(n);
                    }
                    other => {
                        return Err(err(
                            lineno,
                            format!("unknown key `{other}` (expected lint/path/line/reason)"),
                        ))
                    }
                }
            }
            Section::Interproc => match key.as_str() {
                "roots" => out.roots = parse_string_array(&value, lineno)?,
                other => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{other}` in [interproc] (expected roots)"),
                    ))
                }
            },
            Section::Locks => match key.as_str() {
                "order" => out.lock_order = parse_string_array(&value, lineno)?,
                other => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{other}` in [locks] (expected order)"),
                    ))
                }
            },
        }
    }
    if let Some(partial) = current.take() {
        out.entries.push(partial.finish()?);
    }
    Ok(out)
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped char
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parse a double-quoted TOML string with basic escapes.
fn parse_string(value: &str, lineno: u32) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
        return Err(err(
            lineno,
            format!("expected a double-quoted string, got `{v}`"),
        ));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => return Err(err(lineno, "dangling escape at end of string")),
            }
        } else if c == '"' {
            return Err(err(lineno, "unescaped quote inside string value"));
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Parse a `["a", "b", …]` array of double-quoted strings (whitespace and
/// trailing commas tolerated; anything else is an error).
fn parse_string_array(value: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(lineno, format!("expected a `[…]` string array, got `{v}`")))?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        if !rest.starts_with('"') {
            return Err(err(
                lineno,
                format!("expected a double-quoted string in array, got `{rest}`"),
            ));
        }
        let end = rest[1..]
            .find('"')
            .ok_or_else(|| err(lineno, "unterminated string in array"))?;
        out.push(rest[1..=end].to_string());
        rest = rest[end + 2..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(err(
                lineno,
                format!("expected `,` between array elements, got `{rest}`"),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_with_optional_line() {
        let src = r#"
# allowlist
[[allow]]
lint = "L2-index"
path = "crates/smt/src/sat.rs"
reason = "watched arrays sized at allocation"

[[allow]]
lint = "L3-float-type"
path = "crates/smt/src/sat.rs"
line = 42
reason = "VSIDS activity is heuristic-only"
"#;
        let list = parse_config(src).expect("parse");
        assert_eq!(list.entries.len(), 2);
        assert_eq!(list.entries[0].lint, "L2-index");
        assert_eq!(list.entries[0].line, None);
        assert_eq!(list.entries[1].line, Some(42));
    }

    #[test]
    fn parses_interproc_roots_multiline() {
        let src = "[interproc]\nroots = [\n    \"SatSolver::solve_with\", # CDCL entry\n    \"decode\",\n]\n\n[locks]\norder = [\"conns\", \"conn\"]\n\n[[allow]]\nlint = \"L2-index\"\npath = \"a.rs\"\nreason = \"ok\"\n";
        let cfg = parse_config(src).expect("parse");
        assert_eq!(cfg.roots, vec!["SatSolver::solve_with", "decode"]);
        assert_eq!(cfg.lock_order, vec!["conns", "conn"]);
        assert_eq!(cfg.entries.len(), 1);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let src = "[[allow]]\nlint = \"L1-hash-collection\"\npath = \"x.rs\"\n";
        let e = parse_config(src).unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
    }

    #[test]
    fn empty_reason_is_an_error() {
        let src = "[[allow]]\nlint = \"L4-safety-comment\"\npath = \"x.rs\"\nreason = \"  \"\n";
        let e = parse_config(src).unwrap_err();
        assert!(e.message.contains("non-empty"), "{e}");
    }

    #[test]
    fn unknown_keys_are_errors() {
        let src = "[[allow]]\nlnit = \"L1\"\n";
        let e = parse_config(src).unwrap_err();
        assert!(e.message.contains("unknown key"), "{e}");
    }

    #[test]
    fn unknown_sections_are_errors() {
        let src = "[interprc]\nroots = []\n";
        let e = parse_config(src).unwrap_err();
        assert!(e.message.contains("unexpected section"), "{e}");
    }

    #[test]
    fn hash_in_string_is_not_a_comment() {
        let src = "[[allow]]\nlint = \"L2-unwrap\"\npath = \"a.rs\"\nreason = \"issue #12\"\n";
        let list = parse_config(src).expect("parse");
        assert_eq!(list.entries[0].reason, "issue #12");
    }

    #[test]
    fn allow_entry_before_sections_still_parses() {
        // Section order is free: [[allow]] then [interproc] then [[allow]].
        let src = "[[allow]]\nlint = \"L2-unwrap\"\npath = \"a.rs\"\nreason = \"r\"\n[interproc]\nroots = [\"f\"]\n[[allow]]\nlint = \"L2-index\"\npath = \"b.rs\"\nreason = \"r\"\n";
        let cfg = parse_config(src).expect("parse");
        assert_eq!(cfg.entries.len(), 2);
        assert_eq!(cfg.roots, vec!["f"]);
    }
}
