//! Loader for `atp-lint.toml`, the structural-rule manifest.
//!
//! The manifest declares the workspace's architectural invariants — the
//! crate layering DAG, the hot entry points that must stay panic-free,
//! and the crates whose ProfSink calls and Mutex nesting are audited.
//! Like [`crate::cargo`], the parser is a deliberately small
//! line-oriented TOML subset: `[section]` headers, `key = ["a", "b"]`
//! single-line string arrays, and `#` comments. That is all the manifest
//! format uses, and keeping the parser dumb keeps the format honest.

/// Parsed `atp-lint.toml`. Absent sections leave their rule inert, so a
/// checkout without a manifest still lints (token rules only).
#[derive(Clone, Debug, Default)]
pub struct LintManifest {
    /// `[layering]`: crate dir → allowed normal-dep crate dirs.
    pub layering: Vec<(String, Vec<String>)>,
    /// `[hotpath] entries`: hot entry points, optionally `Type::`-qualified.
    pub hot_entries: Vec<String>,
    /// 1-based manifest line of `[hotpath] entries` (0 when absent), where
    /// an entry that names no function is reported.
    pub hot_entries_line: u32,
    /// `[hotpath] crates`: crate dirs the reachability walk may enter.
    pub hot_crates: Vec<String>,
    /// `[prof-gate] crates`: crate dirs where ProfSink calls need guards.
    pub prof_crates: Vec<String>,
    /// `[lock-order] crates`: crate dirs whose lock nesting is audited.
    pub lock_crates: Vec<String>,
}

impl LintManifest {
    /// Allowed deps for `crate_dir`, or `None` if the crate is not in the
    /// layering table (unknown crates are not constrained — the table is
    /// kept exhaustive by [`LintManifest::layering_covers`] callers).
    pub fn allowed_deps(&self, crate_dir: &str) -> Option<&[String]> {
        self.layering
            .iter()
            .find(|(c, _)| c == crate_dir)
            .map(|(_, deps)| deps.as_slice())
    }

    /// Whether the layering table has an entry for `crate_dir`.
    pub fn layering_covers(&self, crate_dir: &str) -> bool {
        self.allowed_deps(crate_dir).is_some()
    }
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b"]` into its strings; `None` if the value is not a
/// single-line string array.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

/// Parses manifest text. `Err` carries a line-prefixed message for the
/// CLI to surface; the engine treats a missing file as an empty manifest
/// but a malformed one as a hard error (silently skipping structural
/// rules on a typo would be a silent un-gating).
pub fn parse_manifest(src: &str) -> Result<LintManifest, String> {
    let mut m = LintManifest::default();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("atp-lint.toml:{line_no}: expected `key = [...]`"));
        };
        let key = key.trim().trim_matches('"').to_string();
        let Some(values) = parse_string_array(value) else {
            return Err(format!(
                "atp-lint.toml:{line_no}: `{key}` must be a single-line array of strings"
            ));
        };
        match (section.as_str(), key.as_str()) {
            ("layering", _) => m.layering.push((key, values)),
            ("hotpath", "entries") => {
                m.hot_entries = values;
                m.hot_entries_line = line_no as u32;
            }
            ("hotpath", "crates") => m.hot_crates = values,
            ("prof-gate", "crates") => m.prof_crates = values,
            ("lock-order", "crates") => m.lock_crates = values,
            _ => {
                return Err(format!(
                    "atp-lint.toml:{line_no}: unknown key `{key}` in section `[{section}]`"
                ));
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let src = r#"
# comment
[layering]
types = []
hash = ["types"]
"." = ["types", "hash"]

[hotpath]
entries = ["CacheSim::access"]
crates = ["replacement"]

[prof-gate]
crates = ["tlb"]

[lock-order]
crates = ["sim", "obs"]
"#;
        let m = parse_manifest(src).expect("parse");
        assert_eq!(m.allowed_deps("hash"), Some(&["types".to_string()][..]));
        assert_eq!(m.allowed_deps("types"), Some(&[][..]));
        assert!(m.layering_covers("."));
        assert!(!m.layering_covers("sim"));
        assert_eq!(m.hot_entries, ["CacheSim::access"]);
        assert_eq!(m.hot_entries_line, 9);
        assert_eq!(m.hot_crates, ["replacement"]);
        assert_eq!(m.prof_crates, ["tlb"]);
        assert_eq!(m.lock_crates, ["sim", "obs"]);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(parse_manifest("[layering]\ntypes\n")
            .unwrap_err()
            .contains(":2:"));
        assert!(parse_manifest("[layering]\ntypes = \"x\"\n").is_err());
        assert!(parse_manifest("[hotpath]\nwhat = []\n").is_err());
    }

    #[test]
    fn empty_manifest_is_inert() {
        let m = parse_manifest("").expect("parse");
        assert!(m.layering.is_empty() && m.hot_entries.is_empty());
    }
}
