//! `atp-lint`: the workspace's determinism & hygiene analyzer.
//!
//! Every claim this reproduction makes — bit-for-bit golden parity,
//! seed-replayable property counterexamples, byte-deterministic
//! observability exports — rests on contracts that rustc does not check:
//! no wall-clock time in simulation paths, no ambient randomness, no
//! `RandomState` iteration order leaking into results, no external
//! dependencies, no panicking shortcuts in library code, and documented
//! public APIs in the core crates. This crate checks them mechanically.
//!
//! It is deliberately dependency-free: a small lexer ([`lexer`]) feeds a
//! rule engine ([`rules`]) that understands per-crate scoping,
//! `#[cfg(test)]` regions, and inline suppressions. Reports come out as
//! human diagnostics or machine-readable JSON (schema `atp-lint-v1`).
//!
//! # Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above, with a mandatory reason:
//!
//! ```text
//! // atp-lint: allow(no-random-state, reason = "defines FxHashMap itself")
//! use std::collections::{HashMap, HashSet};
//! ```
//!
//! Suppressions without a reason are themselves errors, and suppressions
//! that suppress nothing are warnings — the suppression inventory can
//! only shrink truthfully.
//!
//! # Fixture files
//!
//! Files under a `fixtures/` directory are skipped by workspace scans but
//! can be linted by passing them explicitly. A fixture pins its pretended
//! location with a `pretend` directive so crate-scoped rules apply:
//!
//! ```text
//! // atp-lint: pretend(crate = "sim", class = "lib")
//! ```

pub mod lexer;

mod cargo;
mod graph;
mod manifest;
mod parse;
mod report;
mod rules;
mod walk;

pub use cargo::analyze_cargo_toml;
pub use manifest::{parse_manifest, LintManifest};
pub use report::{render_json, render_text};
pub use walk::collect_files;

use lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Severity of a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Gate only under `--deny-warnings`.
    Warning,
    /// Always gates.
    Error,
}

impl Severity {
    /// Lowercase name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule that fired (e.g. `no-wall-clock`).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Display path (relative, forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based character column (multi-byte UTF-8 counts as one).
    pub col: u32,
    /// Human explanation, specific to the site.
    pub message: String,
}

/// What kind of source file this is, by its path within the crate.
/// Several rules only apply to library code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `src/**` excluding binaries: the code other code links against.
    Lib,
    /// `src/main.rs`, `src/bin/**`.
    Bin,
    /// `tests/**` integration tests.
    Test,
    /// `benches/**`.
    Bench,
    /// `examples/**`.
    Example,
    /// `build.rs`.
    Build,
}

impl FileClass {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "lib" => FileClass::Lib,
            "bin" => FileClass::Bin,
            "test" => FileClass::Test,
            "bench" => FileClass::Bench,
            "example" => FileClass::Example,
            "build" => FileClass::Build,
            _ => return None,
        })
    }
}

/// Static description of one rule, for reports and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Kebab-case rule name used in diagnostics and suppressions.
    pub name: &'static str,
    /// One-line contract statement.
    pub summary: &'static str,
}

/// The rule inventory. `bad-directive` and `unused-suppression` are meta
/// rules emitted by the engine itself and cannot be suppressed.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        summary: "Instant/SystemTime banned in deterministic crates (sim, types, ballsbins, tlb, replacement, memmgmt, obs, trace, workloads, core)",
    },
    RuleInfo {
        name: "no-ambient-randomness",
        summary: "thread_rng/from_entropy/OsRng/rand:: banned everywhere; all randomness flows from explicit seeds",
    },
    RuleInfo {
        name: "no-random-state",
        summary: "std HashMap/HashSet without an explicit deterministic hasher banned in result-affecting crates; use atp_hash::FxHashMap",
    },
    RuleInfo {
        name: "no-external-deps",
        summary: "Cargo.toml dependencies must be path or workspace deps; the build stays hermetic",
    },
    RuleInfo {
        name: "unwrap-policy",
        summary: "no .unwrap()/.expect() in library code outside #[cfg(test)]; return Result or allow with a reason",
    },
    RuleInfo {
        name: "pub-api-docs",
        summary: "doc comments required on pub items in types, ballsbins, tlb",
    },
    RuleInfo {
        name: "no-io-in-core",
        summary: "print!/println!/eprint!/eprintln!/dbg! and std::io::stdout/stderr banned in core library code; IO belongs at the CLI/bench boundary",
    },
    RuleInfo {
        name: "crate-layering",
        summary: "Cargo [dependencies] and atp_* source paths must follow the layering DAG declared in atp-lint.toml; dev-deps exempt",
    },
    RuleInfo {
        name: "no-panic-hotpath",
        summary: "no panic-capable constructs (indexing, unwrap/expect, panic-family macros, unchecked / and %) in functions reachable from the manifest's hot entry points; on a whole-workspace scan, each entry must name a function",
    },
    RuleInfo {
        name: "prof-gate",
        summary: "ProfSink-vocabulary method calls must be dominated by an enabled() guard so the NoProf path stays zero-cost",
    },
    RuleInfo {
        name: "lock-order",
        summary: "Mutex acquisition nesting across obs/sim must form a DAG; cycles are potential deadlocks",
    },
    RuleInfo {
        name: "bad-directive",
        summary: "malformed atp-lint comment (unknown rule, missing reason, bad syntax)",
    },
    RuleInfo {
        name: "unused-suppression",
        summary: "an allow(...) that suppressed nothing",
    },
];

fn rule_exists(name: &str) -> bool {
    // The two meta rules cannot be allowed away.
    RULES
        .iter()
        .any(|r| r.name == name && r.name != "bad-directive" && r.name != "unused-suppression")
}

/// Where a Rust source lives, for rule scoping. Fixtures override this
/// with a `pretend` directive.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Display path used in findings.
    pub path: String,
    /// Crate directory name under `crates/` (`"sim"`, `"types"`, …);
    /// `"."` for the workspace root package.
    pub crate_dir: String,
    /// File class.
    pub class: FileClass,
}

impl FileCtx {
    /// Derives crate and class from a workspace-relative path like
    /// `crates/sim/src/runner.rs`.
    pub fn from_rel_path(rel: &str) -> Self {
        let norm = rel.replace('\\', "/");
        let (crate_dir, in_crate) = match norm.strip_prefix("crates/") {
            Some(rest) => match rest.split_once('/') {
                Some((dir, tail)) => (dir.to_string(), tail.to_string()),
                None => (rest.to_string(), String::new()),
            },
            None => (".".to_string(), norm.clone()),
        };
        let class = if in_crate == "build.rs" {
            FileClass::Build
        } else if in_crate.starts_with("tests/") {
            FileClass::Test
        } else if in_crate.starts_with("benches/") {
            FileClass::Bench
        } else if in_crate.starts_with("examples/") {
            FileClass::Example
        } else if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
            FileClass::Bin
        } else {
            FileClass::Lib
        };
        FileCtx {
            path: norm,
            crate_dir,
            class,
        }
    }
}

/// A parsed `atp-lint:` comment. An `allow` may name several rules when
/// one line legitimately trips more than one (e.g. `unwrap-policy` and
/// `no-panic-hotpath` on the same `.expect(...)`).
enum Directive {
    Allow {
        rules: Vec<&'static str>,
    },
    Pretend {
        krate: Option<String>,
        class: Option<FileClass>,
    },
}

/// Splits `args` on top-level commas, respecting double quotes.
fn split_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in args.chars() {
        if in_str {
            cur.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
            cur.push(c);
        } else if c == ',' {
            out.push(cur.trim().to_string());
            cur.clear();
        } else {
            cur.push(c);
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Extracts the string value of a `key = "value"` argument.
fn kv_string<'a>(arg: &'a str, key: &str) -> Option<&'a str> {
    let rest = arg.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix('=')?.trim();
    rest.strip_prefix('"')?.strip_suffix('"')
}

/// Parses one comment's text. `Ok(None)` if it is not an atp-lint
/// directive at all; `Err(msg)` if it tries to be one and fails.
fn parse_directive(comment: &str) -> Result<Option<Directive>, String> {
    let Some(at) = comment.find("atp-lint:") else {
        return Ok(None);
    };
    let body = comment[at + "atp-lint:".len()..].trim();
    if let Some(rest) = body.strip_prefix("allow") {
        let inner = rest
            .trim_start()
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|i| &r[..i]))
            .ok_or("allow: expected `allow(<rule>, reason = \"...\")`")?;
        let args = split_args(inner);
        // Leading args are rule names, up to the `reason = "..."` pair.
        let mut rules_named: Vec<&'static str> = Vec::new();
        let mut reason: Option<&str> = None;
        for arg in &args {
            if let Some(r) = kv_string(arg, "reason") {
                reason = Some(r);
                continue;
            }
            if reason.is_some() {
                return Err(format!("allow: unexpected argument `{arg}` after reason"));
            }
            let Some(rule) = RULES.iter().find(|r| r.name == arg.as_str()) else {
                return Err(format!("allow: unknown rule `{arg}`"));
            };
            if !rule_exists(rule.name) {
                return Err(format!("allow: rule `{arg}` cannot be suppressed"));
            }
            rules_named.push(rule.name);
        }
        if rules_named.is_empty() {
            return Err("allow: missing rule name".to_string());
        }
        match reason {
            Some(r) if !r.trim().is_empty() => Ok(Some(Directive::Allow { rules: rules_named })),
            _ => Err(format!(
                "allow({}): a non-empty `reason = \"...\"` is mandatory",
                rules_named.join(", ")
            )),
        }
    } else if let Some(rest) = body.strip_prefix("pretend") {
        let inner = rest
            .trim_start()
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|i| &r[..i]))
            .ok_or("pretend: expected `pretend(crate = \"...\", class = \"...\")`")?;
        let mut krate = None;
        let mut class = None;
        for arg in split_args(inner) {
            if let Some(v) = kv_string(&arg, "crate") {
                krate = Some(v.to_string());
            } else if let Some(v) = kv_string(&arg, "class") {
                class = Some(
                    FileClass::parse(v).ok_or_else(|| format!("pretend: unknown class `{v}`"))?,
                );
            } else {
                return Err(format!("pretend: unknown argument `{arg}`"));
            }
        }
        Ok(Some(Directive::Pretend { krate, class }))
    } else {
        Err(format!(
            "unknown directive `{}` (expected `allow` or `pretend`)",
            body.split('(').next().unwrap_or(body).trim()
        ))
    }
}

/// Everything the rules need to know about one lexed source file.
pub(crate) struct FileInfo<'a> {
    pub src: &'a str,
    pub tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    pub crate_dir: &'a str,
    pub class: FileClass,
    pub path: &'a str,
}

impl FileInfo<'_> {
    pub(crate) fn text(&self, tok: &Token) -> &str {
        tok.text(self.src)
    }

    pub(crate) fn in_test(&self, tok: &Token) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| tok.start >= s && tok.start < e)
    }

    pub(crate) fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            severity: Severity::Warning,
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

/// Computes the byte ranges of items annotated `#[cfg(test)]` (or any
/// `cfg(...)` mentioning `test`): from the attribute to the end of the
/// item — the matching `}` of its first brace, or the first `;` if the
/// item has no body (e.g. a `use`).
pub(crate) fn test_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment(_) | TokenKind::BlockComment(_)
            )
        })
        .collect();
    let mut i = 0;
    while i + 1 < sig.len() {
        let t = &tokens[sig[i]];
        if t.kind == TokenKind::Punct(b'#') && tokens[sig[i + 1]].kind == TokenKind::Punct(b'[') {
            // Scan the attribute body up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_cfg = false;
            let mut mentions_test = false;
            while j < sig.len() && depth > 0 {
                let tj = &tokens[sig[j]];
                match tj.kind {
                    TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b']') => depth -= 1,
                    TokenKind::Ident => {
                        let txt = tj.text(src);
                        if txt == "cfg" {
                            mentions_cfg = true;
                        }
                        if txt == "test" {
                            mentions_test = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if mentions_cfg && mentions_test {
                // The region runs from the attribute to the end of the
                // annotated item.
                let start = t.start;
                let mut k = j;
                let mut brace = 0usize;
                let mut end = src.len();
                while k < sig.len() {
                    match tokens[sig[k]].kind {
                        TokenKind::Punct(b'{') => brace += 1,
                        TokenKind::Punct(b'}') => {
                            brace = brace.saturating_sub(1);
                            if brace == 0 {
                                end = tokens[sig[k]].end;
                                break;
                            }
                        }
                        TokenKind::Punct(b';') if brace == 0 => {
                            end = tokens[sig[k]].end;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                regions.push((start, end));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// One suppression directive; `used` tracks each named rule separately
/// so a multi-rule allow is audited per rule.
pub(crate) struct Allow {
    rules: Vec<&'static str>,
    used: Vec<bool>,
    line: u32,
}

/// A fully lexed and structurally indexed source file, as produced by
/// the per-file pass. Workspace rules ([`graph`]) read these; the
/// per-file findings inside are still unfiltered by suppressions.
pub(crate) struct AnalyzedFile {
    pub src: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    pub test_regions: Vec<(usize, usize)>,
    pub items: parse::ItemTable,
    pub braces: parse::BraceTree,
    pub crate_dir: String,
    pub class: FileClass,
    pub path: String,
    /// Per-file rule findings, pre-suppression.
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
    /// `bad-directive` findings (never suppressible).
    pub meta: Vec<Finding>,
}

/// Per-file pass: lexes, reads directives, builds the structural index,
/// and runs the per-file rules. Suppressions are *not* applied yet —
/// [`finish_file`] does that once workspace findings are in.
pub(crate) fn analyze_file(src: &str, ctx: &FileCtx) -> AnalyzedFile {
    let tokens = lex(src);
    let mut crate_dir = ctx.crate_dir.clone();
    let mut class = ctx.class;

    let mut allows: Vec<Allow> = Vec::new();
    let mut meta: Vec<Finding> = Vec::new();
    for t in &tokens {
        // Only plain comments carry directives: doc comments are prose
        // (and may legitimately *quote* directives, as this crate's do).
        if !matches!(
            t.kind,
            TokenKind::LineComment(lexer::Doc::No) | TokenKind::BlockComment(lexer::Doc::No)
        ) {
            continue;
        }
        match parse_directive(t.text(src)) {
            Ok(None) => {}
            Ok(Some(Directive::Allow { rules })) => {
                let used = vec![false; rules.len()];
                allows.push(Allow {
                    rules,
                    used,
                    line: t.line,
                });
            }
            Ok(Some(Directive::Pretend { krate, class: cl })) => {
                if let Some(k) = krate {
                    crate_dir = k;
                }
                if let Some(c) = cl {
                    class = c;
                }
            }
            Err(msg) => meta.push(Finding {
                rule: "bad-directive",
                severity: Severity::Error,
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: msg,
            }),
        }
    }

    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment(_) | TokenKind::BlockComment(_)
            )
        })
        .collect();
    let regions = test_regions(src, &tokens);
    let items = parse::build_items(src, &tokens, &sig, &regions);
    let braces = parse::BraceTree::build(&tokens, &sig);

    let mut findings = Vec::new();
    {
        let info = FileInfo {
            src,
            tokens: &tokens,
            sig: sig.clone(),
            test_regions: regions.clone(),
            crate_dir: &crate_dir,
            class,
            path: &ctx.path,
        };
        rules::run_all(&info, &mut findings);
    }

    AnalyzedFile {
        src: src.to_string(),
        tokens,
        sig,
        test_regions: regions,
        items,
        braces,
        crate_dir,
        class,
        path: ctx.path.clone(),
        findings,
        allows,
        meta,
    }
}

/// Applies suppressions (same line or line above) to the file's own
/// findings plus any workspace-rule `extra` findings for this file, then
/// audits unused allows. Returns the file's final findings.
///
/// `hot_audited` says whether the `no-panic-hotpath` walk actually ran
/// with a resolved entry point in this scan; when it did not (partial
/// scans, missing manifest), allows naming that rule are exempt from the
/// unused audit — the rule could not have fired, so "unused" would be
/// noise, not signal.
pub(crate) fn finish_file(
    mut af: AnalyzedFile,
    extra: Vec<Finding>,
    hot_audited: bool,
) -> Vec<Finding> {
    let mut findings = af.findings;
    findings.extend(extra);
    let allows = &mut af.allows;
    findings.retain(|f| {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.line == f.line || a.line + 1 == f.line {
                for (i, r) in a.rules.iter().enumerate() {
                    if *r == f.rule {
                        a.used[i] = true;
                        suppressed = true;
                    }
                }
            }
        }
        !suppressed
    });

    let mut meta = af.meta;
    for a in allows.iter() {
        for (i, r) in a.rules.iter().enumerate() {
            if *r == "no-panic-hotpath" && !hot_audited {
                continue;
            }
            if !a.used[i] {
                meta.push(Finding {
                    rule: "unused-suppression",
                    severity: Severity::Warning,
                    path: af.path.clone(),
                    line: a.line,
                    col: 1,
                    message: format!(
                        "allow({r}) suppresses nothing — delete it or move it next to the violation"
                    ),
                });
            }
        }
    }

    findings.extend(meta);
    findings
}

/// Analyzes one Rust source in isolation (per-file rules only; the
/// workspace rules need the whole scan and the manifest — see
/// [`analyze_paths`]). `ctx` says where the file (claims to) live; a
/// `pretend` directive inside the file overrides it.
pub fn analyze_rust_source(src: &str, ctx: &FileCtx) -> Vec<Finding> {
    finish_file(analyze_file(src, ctx), Vec::new(), false)
}

/// Scan summary alongside the findings.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// Rust files analyzed.
    pub rust_files: usize,
    /// Cargo manifests audited.
    pub manifests: usize,
}

/// Analyzes files/directories. Directories are walked (skipping `target`,
/// `.git`, `fixtures`, hidden dirs); explicit file arguments are always
/// analyzed. Display paths are made relative to `root` when possible.
///
/// Structural rules read `atp-lint.toml` at `root`. A missing manifest
/// leaves them inert; a malformed one is an I/O-level error (silently
/// skipping structural rules on a typo would be a silent un-gating).
pub fn analyze_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<(Vec<Finding>, ScanStats)> {
    let manifest = match std::fs::read_to_string(root.join("atp-lint.toml")) {
        Ok(text) => Some(
            parse_manifest(&text)
                .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))?,
        ),
        Err(_) => None,
    };

    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            files.extend(walk::collect_files(p)?);
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();

    // Pass 1: per-file analysis; Cargo manifests resolve immediately.
    let mut findings = Vec::new();
    let mut stats = ScanStats::default();
    let mut analyzed: Vec<AnalyzedFile> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(file)?;
        if file.file_name().is_some_and(|n| n == "Cargo.toml") {
            stats.manifests += 1;
            findings.extend(analyze_cargo_toml(&text, &rel));
            if let Some(m) = &manifest {
                findings.extend(graph::layering_cargo(&text, &rel, m));
            }
        } else {
            stats.rust_files += 1;
            let ctx = FileCtx::from_rel_path(&rel);
            analyzed.push(analyze_file(&text, &ctx));
        }
    }

    // Pass 2: workspace rules over the aggregated files.
    let mut extra: Vec<Vec<Finding>> = analyzed.iter().map(|_| Vec::new()).collect();
    let mut hot_audited = false;
    if let Some(m) = &manifest {
        for (i, af) in analyzed.iter().enumerate() {
            graph::layering_rust(af, m, &mut extra[i]);
            if m.prof_crates.iter().any(|c| c == &af.crate_dir) && af.class != FileClass::Test {
                graph::prof_gate(af, &mut extra[i]);
            }
        }
        let hot = graph::no_panic_hotpath(&analyzed, m);
        hot_audited = hot.resolved;
        for (i, f) in hot.findings {
            extra[i].push(f);
        }
        // Not suppressible: an entry point that names no function is a
        // manifest error, not a site.
        for entry in hot.unresolved {
            findings.push(Finding {
                rule: "no-panic-hotpath",
                severity: Severity::Error,
                path: "atp-lint.toml".to_string(),
                line: m.hot_entries_line,
                col: 1,
                message: format!(
                    "[hotpath] entry `{entry}` names no function in the hot crates — the panic audit would skip it"
                ),
            });
        }
        for (i, f) in graph::lock_order(&analyzed, m) {
            extra[i].push(f);
        }
    }
    for (af, ex) in analyzed.into_iter().zip(extra) {
        findings.extend(finish_file(af, ex, hot_audited));
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok((findings, stats))
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_dir: &str, class: FileClass) -> FileCtx {
        FileCtx {
            path: "test.rs".to_string(),
            crate_dir: crate_dir.to_string(),
            class,
        }
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "// atp-lint: allow(no-wall-clock)\nfn f() {}\n";
        let f = analyze_rust_source(src, &ctx("sim", FileClass::Lib));
        assert!(f.iter().any(|x| x.rule == "bad-directive"), "{f:?}");
    }

    #[test]
    fn suppression_silences_same_and_next_line() {
        let src = "// atp-lint: allow(no-wall-clock, reason = \"test\")\nuse std::time::Instant;\n";
        let f = analyze_rust_source(src, &ctx("sim", FileClass::Lib));
        assert!(f.iter().all(|x| x.rule != "no-wall-clock"), "{f:?}");
        assert!(f.iter().all(|x| x.rule != "unused-suppression"), "{f:?}");
    }

    #[test]
    fn unused_suppression_warns() {
        let src = "// atp-lint: allow(no-wall-clock, reason = \"stale\")\nfn f() {}\n";
        let f = analyze_rust_source(src, &ctx("sim", FileClass::Lib));
        assert!(f.iter().any(|x| x.rule == "unused-suppression"), "{f:?}");
    }

    #[test]
    fn pretend_reassigns_scope() {
        let src =
            "// atp-lint: pretend(crate = \"sim\", class = \"lib\")\nuse std::time::Instant;\n";
        let f = analyze_rust_source(src, &ctx("lint", FileClass::Lib));
        assert!(f.iter().any(|x| x.rule == "no-wall-clock"), "{f:?}");
    }

    #[test]
    fn cfg_test_regions_cover_mod_tests() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  use std::time::Instant;\n}\n";
        let toks = lex(src);
        let regions = test_regions(src, &toks);
        assert_eq!(regions.len(), 1);
        let inst = src.find("Instant").unwrap();
        assert!(regions[0].0 < inst && inst < regions[0].1);
    }

    #[test]
    fn file_ctx_classification() {
        let c = FileCtx::from_rel_path("crates/sim/src/runner.rs");
        assert_eq!(c.crate_dir, "sim");
        assert_eq!(c.class, FileClass::Lib);
        let c = FileCtx::from_rel_path("crates/cli/src/main.rs");
        assert_eq!(c.class, FileClass::Bin);
        let c = FileCtx::from_rel_path("crates/check/tests/diff.rs");
        assert_eq!(c.class, FileClass::Test);
        let c = FileCtx::from_rel_path("tests/golden_parity.rs");
        assert_eq!(c.crate_dir, ".");
        assert_eq!(c.class, FileClass::Test);
        let c = FileCtx::from_rel_path("src/lib.rs");
        assert_eq!(c.crate_dir, ".");
        assert_eq!(c.class, FileClass::Lib);
    }
}
