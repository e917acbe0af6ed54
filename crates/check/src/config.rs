//! `panda-check.toml` configuration.
//!
//! The build environment has no `toml` crate, so this module includes a
//! minimal hand-rolled parser covering exactly the subset the config uses:
//! `[section]` tables, `[[array-of-table]]` entries, string / integer /
//! string-array values (arrays may span multiple lines), and `#` comments.

use std::fmt;

/// One entry in the `unsafe` allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeAllow {
    /// Workspace-relative path of the file containing the blocks.
    pub file: String,
    /// Number of `unsafe` occurrences permitted in that file.
    pub blocks: usize,
    /// One-line justification (required).
    pub reason: String,
}

/// Parsed `panda-check.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Module prefixes (workspace-relative) in which the banned APIs are
    /// denied — the RNG-keyed code.
    pub determinism_modules: Vec<String>,
    /// Banned API paths, e.g. `SystemTime::now` or a bare `thread_rng`.
    pub banned: Vec<String>,
    /// Files under the deterministic-iteration discipline (in addition to
    /// any file carrying the `#![doc = "panda-check: deterministic"]` tag).
    pub iteration_files: Vec<String>,
    /// Files whose non-test code must be panic-free.
    pub panic_path_files: Vec<String>,
    /// Unsafe-block allowlist.
    pub unsafe_allow: Vec<UnsafeAllow>,
}

/// A config parse error with a line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "panda-check.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Strip a trailing `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

fn parse_string(raw: &str, line: usize) -> Result<String, ConfigError> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{raw}`")))?;
    Ok(inner.replace("\\\\", "\\").replace("\\\"", "\""))
}

/// Split a `[a, b, c]` body on commas that sit outside string literals.
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut prev_escape = false;
    for c in body.chars() {
        match c {
            '"' if !prev_escape => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    if !current.trim().is_empty() {
        items.push(current.trim().to_string());
    }
    items
}

/// Parse the config text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = String::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;

    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }

        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = format!("[[{}]]", name.trim());
            if name.trim() == "unsafe_allow" {
                cfg.unsafe_allow.push(UnsafeAllow {
                    file: String::new(),
                    blocks: 0,
                    reason: String::new(),
                });
            } else {
                return Err(err(lineno, format!("unknown array table `{name}`")));
            }
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            if section != "determinism" && section != "panic_path" {
                return Err(err(lineno, format!("unknown section `{section}`")));
            }
            continue;
        }

        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim();
        let mut value = value.trim().to_string();

        // Multi-line arrays: keep consuming lines until brackets balance.
        if value.starts_with('[') && !value.ends_with(']') {
            while i < lines.len() {
                let cont = strip_comment(lines[i]).trim().to_string();
                i += 1;
                value.push(' ');
                value.push_str(&cont);
                if cont.ends_with(']') {
                    break;
                }
            }
        }

        let string_array = |v: &str| -> Result<Vec<String>, ConfigError> {
            let body = v
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| err(lineno, format!("expected an array for `{key}`")))?;
            split_array_items(body)
                .iter()
                .map(|item| parse_string(item, lineno))
                .collect()
        };

        match (section.as_str(), key) {
            ("determinism", "modules") => cfg.determinism_modules = string_array(&value)?,
            ("determinism", "banned") => cfg.banned = string_array(&value)?,
            ("determinism", "iteration_files") => cfg.iteration_files = string_array(&value)?,
            ("panic_path", "files") => cfg.panic_path_files = string_array(&value)?,
            ("[[unsafe_allow]]", "file") => {
                let entry = cfg
                    .unsafe_allow
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[unsafe_allow]]"))?;
                entry.file = parse_string(&value, lineno)?;
            }
            ("[[unsafe_allow]]", "blocks") => {
                let entry = cfg
                    .unsafe_allow
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[unsafe_allow]]"))?;
                entry.blocks = value.trim().parse().map_err(|_| {
                    err(
                        lineno,
                        format!("`blocks` must be an integer, got `{value}`"),
                    )
                })?;
            }
            ("[[unsafe_allow]]", "reason") => {
                let entry = cfg
                    .unsafe_allow
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[unsafe_allow]]"))?;
                entry.reason = parse_string(&value, lineno)?;
            }
            _ => {
                return Err(err(
                    lineno,
                    format!("unknown key `{key}` in section `{section}`"),
                ));
            }
        }
    }

    for entry in &cfg.unsafe_allow {
        if entry.file.is_empty() || entry.reason.is_empty() {
            return Err(err(
                0,
                format!(
                    "[[unsafe_allow]] entry for `{}` needs both `file` and a non-empty `reason`",
                    entry.file
                ),
            ));
        }
    }

    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_schema() {
        let text = r##"
# comment
[determinism]
modules = ["crates/core/src/release", "crates/core/src/mech"]
banned = ["SystemTime::now", "Instant::now", "thread_rng"]
iteration_files = [
    "crates/core/src/index.rs",  # inline comment
    "crates/core/src/cache.rs",
]

[panic_path]
files = ["crates/net/src/wire.rs"]

[[unsafe_allow]]
file = "crates/core/src/policy.rs"
blocks = 1
reason = "slice reinterpret"

[[unsafe_allow]]
file = "crates/core/src/ffi.rs"
blocks = 1
reason = "raw buffer view"
"##;
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.determinism_modules.len(), 2);
        assert_eq!(cfg.banned.len(), 3);
        assert_eq!(cfg.iteration_files.len(), 2);
        assert_eq!(cfg.panic_path_files, vec!["crates/net/src/wire.rs"]);
        assert_eq!(cfg.unsafe_allow.len(), 2);
        assert_eq!(cfg.unsafe_allow[1].blocks, 1);
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(parse("[determinism]\nnope = 3\n").is_err());
        assert!(parse("[mystery]\n").is_err());
    }

    #[test]
    fn requires_reason_on_allowlist() {
        let text = "[[unsafe_allow]]\nfile = \"a.rs\"\nblocks = 1\n";
        assert!(parse(text).is_err());
    }
}
