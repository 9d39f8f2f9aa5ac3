//! Workspace-level structural rules: the `use`-import graph, the
//! over-approximate name-based call graph, and the four rules built on
//! them — `crate-layering`, `no-panic-hotpath`, `prof-gate`, and
//! `lock-order`.
//!
//! All four read the checked-in `atp-lint.toml` manifest
//! ([`crate::manifest`]); without one they are inert. The call graph is
//! name-based on purpose: a callee name resolves to *every* function
//! with that name in the scoped crates, which can only over-approximate
//! reachability (false paths, never missed ones) at the cost of some
//! spurious fan-out through common method names. DESIGN.md §6 lists the
//! known misses.

use crate::lexer::TokenKind;
use crate::manifest::LintManifest;
use crate::{AnalyzedFile, FileClass, Finding};

/// Significant-token text.
fn txt(af: &AnalyzedFile, si: usize) -> &str {
    af.tokens[af.sig[si]].text(&af.src)
}

/// Significant-token kind; `None` past the end.
fn kd(af: &AnalyzedFile, si: usize) -> Option<TokenKind> {
    af.sig.get(si).map(|&ti| af.tokens[ti].kind)
}

/// Whether significant token `si` sits in a `#[cfg(test)]` region.
fn in_test(af: &AnalyzedFile, si: usize) -> bool {
    let start = af.tokens[af.sig[si]].start;
    af.test_regions
        .iter()
        .any(|&(s, e)| start >= s && start < e)
}

/// Builds a finding anchored at significant token `si`.
fn finding(af: &AnalyzedFile, rule: &'static str, si: usize, message: String) -> Finding {
    let t = &af.tokens[af.sig[si]];
    Finding {
        rule,
        severity: crate::Severity::Warning,
        path: af.path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// Keywords that can directly precede a `[` or follow a `.`/call shape
/// without making the construct an expression-position index/call.
const EXPR_KEYWORDS: &[&str] = &[
    "let", "if", "else", "while", "for", "in", "match", "return", "loop", "break", "continue",
    "move", "ref", "mut", "as", "where", "impl", "dyn", "fn", "use", "pub", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "async", "await", "box", "self", "Self", "super",
    "crate",
];

// ---------------------------------------------------------------------------
// crate-layering
// ---------------------------------------------------------------------------

/// `crate-layering` over Rust sources: every `atp_*` path reference in
/// non-test code must point at a crate the layering manifest allows.
/// Test/bench/example classes follow dev-dependencies and are exempt.
pub(crate) fn layering_rust(af: &AnalyzedFile, m: &LintManifest, out: &mut Vec<Finding>) {
    if !matches!(af.class, FileClass::Lib | FileClass::Bin | FileClass::Build) {
        return;
    }
    let Some(allowed) = m.allowed_deps(&af.crate_dir) else {
        return; // crate not in the layering table: unconstrained
    };
    for si in 0..af.sig.len() {
        if kd(af, si) != Some(TokenKind::Ident) {
            continue;
        }
        let name = txt(af, si);
        let Some(dep) = name.strip_prefix("atp_") else {
            continue;
        };
        if dep.is_empty() || dep == af.crate_dir || in_test(af, si) {
            continue;
        }
        if !allowed.iter().any(|a| a == dep) {
            out.push(finding(
                af,
                "crate-layering",
                si,
                format!(
                    "`{name}` reference in crate `{}` violates the layering DAG \
                     (atp-lint.toml allows only [{}]) — route the data through an \
                     allowed layer or change the manifest deliberately",
                    af.crate_dir,
                    allowed.join(", "),
                ),
            ));
        }
    }
}

/// `crate-layering` over a `Cargo.toml`: `[dependencies]` entries naming
/// `atp-*` crates must be in the manifest's allow-list for this crate.
/// Dev- and build-dependencies are exempt (test-only edges are legal).
pub(crate) fn layering_cargo(src: &str, rel_path: &str, m: &LintManifest) -> Vec<Finding> {
    let crate_dir = match rel_path.strip_prefix("crates/") {
        Some(rest) => match rest.split_once('/') {
            Some((dir, "Cargo.toml")) => dir.to_string(),
            _ => return Vec::new(),
        },
        None if rel_path == "Cargo.toml" => ".".to_string(),
        None => return Vec::new(),
    };
    let Some(allowed) = m.allowed_deps(&crate_dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            continue;
        }
        // Normal deps only: `[dependencies]` and `[dependencies.atp-x]`.
        let dep = if section == "dependencies" {
            let key = line.split(['=', '.', ' ']).next().unwrap_or("");
            key.strip_prefix("atp-")
        } else {
            section
                .strip_prefix("dependencies.")
                .and_then(|d| d.strip_prefix("atp-"))
        };
        let Some(dep) = dep else { continue };
        if !dep.is_empty() && !allowed.iter().any(|a| a == dep) {
            out.push(Finding {
                rule: "crate-layering",
                severity: crate::Severity::Warning,
                path: rel_path.to_string(),
                line: line_no,
                col: 1,
                message: format!(
                    "dependency `atp-{dep}` violates the layering DAG for crate \
                     `{crate_dir}` (atp-lint.toml allows only [{}])",
                    allowed.join(", "),
                ),
            });
        }
        if section != "dependencies" {
            section = String::new(); // one finding per subtable header
        }
    }
    out
}

// ---------------------------------------------------------------------------
// prof-gate
// ---------------------------------------------------------------------------

/// The ProfSink reporting vocabulary. A call to any of these must be
/// dominated by an `enabled()` check.
const PROF_METHODS: &[&str] = &[
    "rc_hit",
    "rc_stale",
    "rc_cold",
    "probe_len",
    "miss_run",
    "lane_occupancy",
    "eviction",
    "stage_op",
];

/// `prof-gate`: every ProfSink-vocabulary method call in the scoped
/// crates must sit inside an `if`/`while` whose condition is (or was
/// bound from) an `enabled()` call. `impl ProfSink for …` bodies are the
/// seam itself and exempt; test code is exempt.
pub(crate) fn prof_gate(af: &AnalyzedFile, out: &mut Vec<Finding>) {
    for si in 0..af.sig.len() {
        if kd(af, si) != Some(TokenKind::Ident) || !PROF_METHODS.contains(&txt(af, si)) {
            continue;
        }
        // Method call shape: `.name(`.
        if si == 0
            || kd(af, si - 1) != Some(TokenKind::Punct(b'.'))
            || kd(af, si + 1) != Some(TokenKind::Punct(b'('))
        {
            continue;
        }
        if in_test(af, si) || af.class == FileClass::Test {
            continue;
        }
        let Some(f) = af.items.enclosing_fn(si) else {
            continue;
        };
        if f.trait_name.as_deref() == Some("ProfSink") || f.is_test {
            continue; // the seam's own impls (incl. the &mut forwarding)
        }
        if is_guarded(af, si, f) {
            continue;
        }
        out.push(finding(
            af,
            "prof-gate",
            si,
            format!(
                "ProfSink call `.{}(…)` is not dominated by an `enabled()` guard \
                 in `{}` (declared at line {}) — wrap it in `if prof.enabled() \
                 {{ … }}` (or a bool bound from `enabled()`) so the NoProf path \
                 stays zero-cost (PR 9)",
                txt(af, si),
                f.name,
                af.tokens[f.name_tok].line,
            ),
        ));
    }
}

/// Whether some scope enclosing `si` (up to the body of `f`) is an
/// `if`/`while` whose condition mentions `enabled(` or an identifier
/// bound from it earlier in the function.
fn is_guarded(af: &AnalyzedFile, si: usize, f: &crate::parse::FnItem) -> bool {
    let Some((body_open, body_close)) = f.body else {
        return false;
    };
    // Identifiers bound from `enabled()`: `let <id> = … enabled ( … ;`.
    let mut guard_idents: Vec<&str> = Vec::new();
    let mut j = body_open + 1;
    while j < body_close {
        if kd(af, j) == Some(TokenKind::Ident) && txt(af, j) == "let" {
            let mut k = j + 1;
            if kd(af, k) == Some(TokenKind::Ident) && txt(af, k) == "mut" {
                k += 1;
            }
            if kd(af, k) == Some(TokenKind::Ident) {
                let id = txt(af, k);
                // Scan the initializer to `;` for `enabled(`.
                let mut l = k + 1;
                while l < body_close && kd(af, l) != Some(TokenKind::Punct(b';')) {
                    if kd(af, l) == Some(TokenKind::Ident)
                        && txt(af, l) == "enabled"
                        && kd(af, l + 1) == Some(TokenKind::Punct(b'('))
                    {
                        guard_idents.push(id);
                        break;
                    }
                    l += 1;
                }
            }
        }
        j += 1;
    }
    // Ascend enclosing scopes; inspect each scope's introducing tokens.
    let mut scope = af.braces.innermost(si);
    while let Some(s) = scope {
        let sc = af.braces.scopes[s];
        if sc.open < body_open {
            break; // left the function
        }
        if sc.open > body_open {
            // Tokens introducing this scope: back from the `{` to the
            // nearest `;`, `{`, or `}` — the condition expression.
            let mut has_if = false;
            let mut has_guard = false;
            let mut k = sc.open;
            while k > 0 {
                k -= 1;
                match kd(af, k) {
                    Some(TokenKind::Punct(b';'))
                    | Some(TokenKind::Punct(b'{'))
                    | Some(TokenKind::Punct(b'}')) => break,
                    Some(TokenKind::Ident) => {
                        let t = txt(af, k);
                        if t == "if" || t == "while" {
                            has_if = true;
                        } else if guard_idents.contains(&t)
                            || (t == "enabled" && kd(af, k + 1) == Some(TokenKind::Punct(b'(')))
                        {
                            has_guard = true;
                        }
                    }
                    _ => {}
                }
            }
            if has_if && has_guard {
                return true;
            }
        }
        scope = sc.parent;
    }
    false
}

// ---------------------------------------------------------------------------
// no-panic-hotpath
// ---------------------------------------------------------------------------

/// Panic-capable macros (the `debug_assert!` family is excluded: it
/// compiles out of release builds, where the hot-path claim lives).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// A function node in the cross-file call graph.
#[derive(Clone, Copy)]
struct Node {
    file: usize,
    item: usize,
}

/// What one `no-panic-hotpath` walk found.
#[derive(Default)]
pub(crate) struct HotpathScan {
    /// Panic-capable sites in reachable functions, by file index.
    pub(crate) findings: Vec<(usize, Finding)>,
    /// Whether any entry point resolved in this scan — when none did
    /// (partial scans), allow-audit for this rule is meaningless and the
    /// engine skips it.
    pub(crate) resolved: bool,
    /// Entries that named no function although the scan covered library
    /// code of every `[hotpath] crates` crate: a renamed or deleted entry
    /// point that would otherwise drop out of the audit silently. Always
    /// empty on partial scans.
    pub(crate) unresolved: Vec<String>,
}

/// `no-panic-hotpath`: walks the name-based call graph from the
/// manifest's hot entry points (within the scoped crates) and flags
/// panic-capable constructs in every reachable function body.
pub(crate) fn no_panic_hotpath(files: &[AnalyzedFile], m: &LintManifest) -> HotpathScan {
    if m.hot_entries.is_empty() || m.hot_crates.is_empty() {
        return HotpathScan::default();
    }
    // Function table over lib code of the scoped crates.
    let mut by_name: std::collections::BTreeMap<&str, Vec<Node>> =
        std::collections::BTreeMap::new();
    let in_scope = |af: &AnalyzedFile| {
        m.hot_crates.iter().any(|c| c == &af.crate_dir) && af.class == FileClass::Lib
    };
    for (fi, af) in files.iter().enumerate() {
        if !in_scope(af) {
            continue;
        }
        for (ii, f) in af.items.fns.iter().enumerate() {
            if !f.is_test && f.body.is_some() {
                by_name
                    .entry(f.name.as_str())
                    .or_default()
                    .push(Node { file: fi, item: ii });
            }
        }
    }
    // Seed with the configured entries ("Type::name" or bare "name").
    let mut queue: Vec<(Node, String)> = Vec::new();
    let mut visited: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    let mut unresolved = Vec::new();
    for entry in &m.hot_entries {
        let (qual, name) = match entry.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, entry.as_str()),
        };
        let mut named = false;
        for &n in by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[]) {
            let f = &files[n.file].items.fns[n.item];
            if qual.is_none() || f.self_ty.as_deref() == qual {
                named = true;
                if visited.insert((n.file, n.item)) {
                    queue.push((n, entry.clone()));
                }
            }
        }
        if !named {
            unresolved.push(entry.clone());
        }
    }
    let resolved = !queue.is_empty();
    let whole_scan = m
        .hot_crates
        .iter()
        .all(|c| files.iter().any(|af| &af.crate_dir == c && in_scope(af)));
    if !whole_scan {
        unresolved.clear();
    }
    let mut out = Vec::new();
    while let Some((node, entry)) = queue.pop() {
        let af = &files[node.file];
        let f = &af.items.fns[node.item];
        let Some((o, c)) = f.body else { continue };
        let nested = af.items.nested_bodies(f);
        let skip = |si: usize| nested.iter().any(|&(no, nc)| no < si && si < nc);
        // Flag panic-capable constructs in this body.
        scan_panic_sites(af, node.file, o, c, &skip, &entry, &mut out);
        // Enqueue callees by name. A `Type::name(…)` call narrows to fns
        // whose impl self type is `Type` when any exist (so `Foo::new`
        // does not drag in every constructor); bare and `.method(…)`
        // calls stay name-only — the over-approximation is deliberate.
        for si in (o + 1)..c {
            if skip(si) || kd(af, si) != Some(TokenKind::Ident) {
                continue;
            }
            if kd(af, si + 1) != Some(TokenKind::Punct(b'(')) {
                continue;
            }
            let name = txt(af, si);
            if EXPR_KEYWORDS.contains(&name) {
                continue;
            }
            // `fn name(` is a nested definition, not a call.
            if si > 0 && kd(af, si - 1) == Some(TokenKind::Ident) && txt(af, si - 1) == "fn" {
                continue;
            }
            let qualifier = if si >= 3
                && kd(af, si - 1) == Some(TokenKind::Punct(b':'))
                && kd(af, si - 2) == Some(TokenKind::Punct(b':'))
                && kd(af, si - 3) == Some(TokenKind::Ident)
            {
                match txt(af, si - 3) {
                    "Self" => f.self_ty.clone(),
                    q => Some(q.to_string()),
                }
            } else {
                None
            };
            let candidates = by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[]);
            let narrowed: Vec<Node> = match &qualifier {
                Some(q) => {
                    let exact: Vec<Node> = candidates
                        .iter()
                        .copied()
                        .filter(|n| files[n.file].items.fns[n.item].self_ty.as_deref() == Some(q))
                        .collect();
                    if !exact.is_empty() {
                        exact
                    } else if q.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                        Vec::new() // an external type (std etc.): not local code
                    } else {
                        candidates.to_vec() // module path: stay name-conservative
                    }
                }
                None => candidates.to_vec(),
            };
            for n in narrowed {
                if visited.insert((n.file, n.item)) {
                    queue.push((n, entry.clone()));
                }
            }
        }
    }
    HotpathScan {
        findings: out,
        resolved,
        unresolved,
    }
}

/// Scans one function body (`sig` range `o..=c`, minus `skip`ped nested
/// bodies) for panic-capable constructs.
fn scan_panic_sites(
    af: &AnalyzedFile,
    file_idx: usize,
    o: usize,
    c: usize,
    skip: &dyn Fn(usize) -> bool,
    entry: &str,
    out: &mut Vec<(usize, Finding)>,
) {
    let mut push = |si: usize, what: String| {
        out.push((
            file_idx,
            finding(
                af,
                "no-panic-hotpath",
                si,
                format!(
                    "{what} on the hot path (reachable from `{entry}`) — use a \
                     checked form, or allow with the invariant that makes this \
                     site unreachable/panic-free"
                ),
            ),
        ));
    };
    for si in (o + 1)..c {
        if skip(si) {
            continue;
        }
        match kd(af, si) {
            Some(TokenKind::Punct(b'[')) => {
                // Expression-position indexing/slicing: `expr[…]`.
                let prev_ok = si > 0
                    && match kd(af, si - 1) {
                        Some(TokenKind::Ident) | Some(TokenKind::RawIdent) => {
                            !EXPR_KEYWORDS.contains(&txt(af, si - 1))
                        }
                        Some(TokenKind::Punct(b')')) | Some(TokenKind::Punct(b']')) => true,
                        // A number before `[` is a tuple-field receiver
                        // (`self.0[i]`); bare literals cannot be indexed.
                        Some(TokenKind::Number) => true,
                        _ => false,
                    };
                if prev_ok {
                    push(si, "panic-capable indexing `[…]`".to_string());
                }
            }
            Some(TokenKind::Punct(b'/')) | Some(TokenKind::Punct(b'%')) => {
                let op = if kd(af, si) == Some(TokenKind::Punct(b'/')) {
                    "/"
                } else {
                    "%"
                };
                // A nonzero integer/float literal divisor cannot trap.
                let literal_nonzero = kd(af, si + 1) == Some(TokenKind::Number)
                    && txt(af, si + 1)
                        .trim_start_matches("0x")
                        .trim_start_matches("0b")
                        .trim_start_matches("0o")
                        .chars()
                        .any(|ch| ch.is_ascii_digit() && ch != '0');
                if !literal_nonzero {
                    push(si, format!("unchecked `{op}` with a non-literal divisor"));
                }
            }
            Some(TokenKind::Ident) => {
                let name = txt(af, si);
                if PANIC_MACROS.contains(&name) && kd(af, si + 1) == Some(TokenKind::Punct(b'!')) {
                    push(si, format!("`{name}!` invocation"));
                } else if name == "unwrap" || name == "expect" {
                    let dotted = si > 0
                        && kd(af, si - 1) == Some(TokenKind::Punct(b'.'))
                        && kd(af, si + 1) == Some(TokenKind::Punct(b'('));
                    let pathed = si > 1
                        && kd(af, si - 1) == Some(TokenKind::Punct(b':'))
                        && kd(af, si - 2) == Some(TokenKind::Punct(b':'));
                    if dotted || pathed {
                        push(si, format!("`.{name}()`"));
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// One `.lock()` acquisition: the lock's lexical name and the sig range
/// over which its guard is (conservatively) considered held.
struct LockSite {
    file: usize,
    name: String,
    si: usize,
    extent: (usize, usize),
}

/// `lock-order`: builds a lock-nesting graph (edge `a → b` when `b` is
/// acquired somewhere inside the extent of a guard of `a`) over the
/// scoped crates and reports every edge that sits on a cycle. Lock
/// identity is the receiver's lexical path (`ram`, `self.0`,
/// `tlbs[core]` → `tlbs`), unified across functions and files —
/// conservative for the Arc-shared mutexes this workspace passes around.
pub(crate) fn lock_order(files: &[AnalyzedFile], m: &LintManifest) -> Vec<(usize, Finding)> {
    if m.lock_crates.is_empty() {
        return Vec::new();
    }
    let mut sites: Vec<LockSite> = Vec::new();
    for (fi, af) in files.iter().enumerate() {
        if !m.lock_crates.iter().any(|c| c == &af.crate_dir)
            || !matches!(af.class, FileClass::Lib | FileClass::Bin)
        {
            continue;
        }
        for si in 0..af.sig.len() {
            if kd(af, si) != Some(TokenKind::Ident)
                || txt(af, si) != "lock"
                || si == 0
                || kd(af, si - 1) != Some(TokenKind::Punct(b'.'))
                || kd(af, si + 1) != Some(TokenKind::Punct(b'('))
                || in_test(af, si)
            {
                continue;
            }
            if af.items.enclosing_fn(si).is_some_and(|f| f.is_test) {
                continue;
            }
            let Some(name) = receiver_name(af, si - 1) else {
                continue; // unidentifiable receiver: skip, see DESIGN §6
            };
            let extent = guard_extent(af, si);
            sites.push(LockSite {
                file: fi,
                name,
                si,
                extent,
            });
        }
    }
    // Nesting edges: b acquired inside a's extent (same file by
    // construction — extents are lexical).
    let mut edges: Vec<(String, String, usize, usize)> = Vec::new(); // (a, b, witness site idx a, b)
    for (ai, a) in sites.iter().enumerate() {
        for (bi, b) in sites.iter().enumerate() {
            if ai == bi || a.file != b.file {
                continue;
            }
            if b.si > a.extent.0
                && b.si < a.extent.1
                && !edges
                    .iter()
                    .any(|(x, y, _, _)| *x == a.name && *y == b.name)
            {
                edges.push((a.name.clone(), b.name.clone(), ai, bi));
            }
        }
    }
    // An edge is on a cycle iff its head reaches its tail.
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: Vec<&str> = vec![from];
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            for (x, y, _, _) in &edges {
                if x == cur && !seen.contains(&y.as_str()) {
                    if y == to {
                        return true;
                    }
                    seen.push(y);
                    stack.push(y);
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    for (a, b, ai, bi) in &edges {
        if a == b || reaches(b, a) {
            let site = &sites[*bi];
            let holder = &sites[*ai];
            let af = &files[site.file];
            out.push((
                site.file,
                finding(
                    af,
                    "lock-order",
                    site.si,
                    if a == b {
                        format!(
                            "`{b}` is locked while a guard of `{a}` is still live \
                             (self-deadlock) — drop the first guard before re-locking"
                        )
                    } else {
                        format!(
                            "`{b}` is locked while `{a}` is held (guard taken at \
                             {}:{}), and elsewhere the order is reversed — this \
                             closes an ordering cycle; acquire locks in one global order",
                            files[holder.file].path,
                            files[holder.file].tokens[files[holder.file].sig[holder.si]].line,
                        )
                    },
                ),
            ));
        }
    }
    out
}

/// Lexical name of a `.lock()` receiver: from the sig index of the `.`,
/// walks back over `ident`/`.`/index-bracket groups to the base path
/// (`tlbs[core]` → `tlbs`, `self.0` → `self.0`). `None` when the
/// receiver is a call result or otherwise unnameable.
fn receiver_name(af: &AnalyzedFile, dot_si: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot_si;
    loop {
        if k == 0 {
            break;
        }
        k -= 1;
        // Skip one `[…]` index group.
        if kd(af, k) == Some(TokenKind::Punct(b']')) {
            let mut depth = 1usize;
            while k > 0 && depth > 0 {
                k -= 1;
                match kd(af, k) {
                    Some(TokenKind::Punct(b']')) => depth += 1,
                    Some(TokenKind::Punct(b'[')) => depth -= 1,
                    _ => {}
                }
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        match kd(af, k) {
            Some(TokenKind::Ident) | Some(TokenKind::Number) => {
                parts.push(txt(af, k).to_string());
                // Continue only through a field `.` (not a `..` range).
                if k >= 1
                    && kd(af, k - 1) == Some(TokenKind::Punct(b'.'))
                    && !(k >= 2 && kd(af, k - 2) == Some(TokenKind::Punct(b'.')))
                {
                    k -= 1; // at the `.`; loop steps before it
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    // The *base* identifies the lock object; keep the full path for
    // field locks (`self.0`) but drop trailing index details (already
    // skipped above).
    if parts.is_empty() {
        None
    } else {
        parts.reverse();
        Some(parts.join("."))
    }
}

/// The sig range over which the guard produced by the `.lock()` at `si`
/// is conservatively considered held.
fn guard_extent(af: &AnalyzedFile, si: usize) -> (usize, usize) {
    let scope = af.braces.innermost(si);
    let (scope_open, scope_close) = match scope {
        Some(s) => (af.braces.scopes[s].open, af.braces.scopes[s].close),
        None => (0, af.sig.len()),
    };
    // Statement start: walk back to a `;`/`{`/`}` at this nesting level.
    let mut k = si;
    let mut depth = 0i32;
    let stmt_start = loop {
        if k == scope_open + 1 || k == 0 {
            break k;
        }
        k -= 1;
        match kd(af, k) {
            Some(TokenKind::Punct(b')'))
            | Some(TokenKind::Punct(b']'))
            | Some(TokenKind::Punct(b'}')) => depth += 1,
            Some(TokenKind::Punct(b'(')) | Some(TokenKind::Punct(b'[')) => depth -= 1,
            Some(TokenKind::Punct(b'{')) if depth > 0 => depth -= 1,
            Some(TokenKind::Punct(b'{')) => break k + 1,
            Some(TokenKind::Punct(b';')) if depth == 0 => break k + 1,
            _ => {}
        }
    };
    let head = if kd(af, stmt_start) == Some(TokenKind::Ident) {
        txt(af, stmt_start)
    } else {
        ""
    };
    match head {
        // `if let Ok(g) = x.lock() { … }` / `while let` / `match x.lock() { … }`:
        // the guard lives for the block that follows.
        "if" | "while" | "match" => {
            let mut j = si;
            let mut paren = 0i32;
            while j < af.sig.len() {
                match kd(af, j) {
                    Some(TokenKind::Punct(b'(')) => paren += 1,
                    Some(TokenKind::Punct(b')')) => paren -= 1,
                    Some(TokenKind::Punct(b'{')) if paren <= 0 => {
                        return (j, matching_close_si(af, j));
                    }
                    Some(TokenKind::Punct(b';')) if paren <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            (si, stmt_end(af, si, scope_close))
        }
        // `let g = x.lock()[.unwrap()/.expect("…")];` binds a named guard
        // that lives to the end of the enclosing scope.
        "let" => {
            let end = stmt_end(af, si, scope_close);
            if named_guard_tail(af, si, end) {
                (si, scope_close)
            } else {
                (si, end)
            }
        }
        // Anything else: a temporary, dropped at the statement's end.
        _ => (si, stmt_end(af, si, scope_close)),
    }
}

/// Matching `}` for the `{` at sig index `open`.
fn matching_close_si(af: &AnalyzedFile, open: usize) -> usize {
    let mut depth = 0usize;
    for si in open..af.sig.len() {
        match kd(af, si) {
            Some(TokenKind::Punct(b'{')) => depth += 1,
            Some(TokenKind::Punct(b'}')) => {
                depth -= 1;
                if depth == 0 {
                    return si;
                }
            }
            _ => {}
        }
    }
    af.sig.len()
}

/// First `;` at nesting level 0 after `si`, capped at `scope_close`.
fn stmt_end(af: &AnalyzedFile, si: usize, scope_close: usize) -> usize {
    let mut depth = 0i32;
    for j in si..scope_close {
        match kd(af, j) {
            Some(TokenKind::Punct(b'('))
            | Some(TokenKind::Punct(b'['))
            | Some(TokenKind::Punct(b'{')) => depth += 1,
            Some(TokenKind::Punct(b')'))
            | Some(TokenKind::Punct(b']'))
            | Some(TokenKind::Punct(b'}')) => depth -= 1,
            Some(TokenKind::Punct(b';')) if depth <= 0 => return j,
            _ => {}
        }
    }
    scope_close
}

/// After `lock` at `si`: does the statement tail (to `end`) consist only
/// of the call parens plus optional `.unwrap()` / `.expect("…")`? That
/// shape binds the lock guard itself to the `let` pattern.
fn named_guard_tail(af: &AnalyzedFile, si: usize, end: usize) -> bool {
    // Skip the `(…)` of the lock call.
    let mut j = si + 1;
    let mut paren = 0i32;
    while j < end {
        match kd(af, j) {
            Some(TokenKind::Punct(b'(')) => paren += 1,
            Some(TokenKind::Punct(b')')) => {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    while j < end {
        // Accept `.unwrap()` / `.expect(<literal>)` repetitions.
        if kd(af, j) != Some(TokenKind::Punct(b'.')) {
            return false;
        }
        let name_ok = kd(af, j + 1) == Some(TokenKind::Ident)
            && matches!(txt(af, j + 1), "unwrap" | "expect");
        if !name_ok {
            return false;
        }
        j += 2;
        if kd(af, j) != Some(TokenKind::Punct(b'(')) {
            return false;
        }
        let mut paren = 0i32;
        while j < end {
            match kd(af, j) {
                Some(TokenKind::Punct(b'(')) => paren += 1,
                Some(TokenKind::Punct(b')')) => {
                    paren -= 1;
                    if paren == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::parse_manifest;
    use crate::{analyze_file, FileClass, FileCtx};

    fn file(src: &str, crate_dir: &str, class: FileClass) -> AnalyzedFile {
        analyze_file(
            src,
            &FileCtx {
                path: format!("crates/{crate_dir}/src/test.rs"),
                crate_dir: crate_dir.to_string(),
                class,
            },
        )
    }

    fn manifest() -> LintManifest {
        parse_manifest(
            r#"
[layering]
types = []
sim = ["types", "tlb"]
[hotpath]
entries = ["CacheSim::access"]
crates = ["replacement"]
[prof-gate]
crates = ["tlb"]
[lock-order]
crates = ["sim"]
"#,
        )
        .expect("manifest")
    }

    #[test]
    fn layering_rust_flags_disallowed_import() {
        let af = file("use atp_obs::Recorder;\n", "sim", FileClass::Lib);
        let mut out = Vec::new();
        layering_rust(&af, &manifest(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("atp_obs"));
        // Allowed dep and test class stay silent.
        let ok = file("use atp_tlb::Tlb;\n", "sim", FileClass::Lib);
        out.clear();
        layering_rust(&ok, &manifest(), &mut out);
        assert!(out.is_empty(), "{out:?}");
        let test = file("use atp_obs::Recorder;\n", "sim", FileClass::Test);
        layering_rust(&test, &manifest(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn layering_cargo_flags_normal_deps_only() {
        let m = manifest();
        let bad = "[dependencies]\natp-obs = { path = \"../obs\" }\n";
        let f = layering_cargo(bad, "crates/sim/Cargo.toml", &m);
        assert_eq!(f.len(), 1, "{f:?}");
        let dev = "[dev-dependencies]\natp-obs = { path = \"../obs\" }\n";
        assert!(layering_cargo(dev, "crates/sim/Cargo.toml", &m).is_empty());
        let sub = "[dependencies.atp-obs]\npath = \"../obs\"\n";
        assert_eq!(layering_cargo(sub, "crates/sim/Cargo.toml", &m).len(), 1);
        let ok = "[dependencies]\natp-tlb = { path = \"../tlb\" }\n";
        assert!(layering_cargo(ok, "crates/sim/Cargo.toml", &m).is_empty());
    }

    #[test]
    fn prof_gate_guard_shapes() {
        let bare = "fn f<P: ProfSink>(p: &mut P) { p.rc_hit(1); }\n";
        let af = file(bare, "tlb", FileClass::Lib);
        let mut out = Vec::new();
        prof_gate(&af, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");

        let direct = "fn f<P: ProfSink>(p: &mut P) { if p.enabled() { p.rc_hit(1); } }\n";
        out.clear();
        prof_gate(&file(direct, "tlb", FileClass::Lib), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // The bound-bool shape of the Tlb batch loop, with nesting.
        let bound = "fn f<P: ProfSink>(p: &mut P) {\n\
                     let profiled = p.enabled();\n\
                     for i in 0..4 {\n  if profiled {\n    p.stage_op(StageOp::Probe, i);\n  }\n }\n}\n";
        out.clear();
        prof_gate(&file(bound, "tlb", FileClass::Lib), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // An unrelated guard does not count.
        let wrong = "fn f<P: ProfSink>(p: &mut P) { if p.is_ready() { p.rc_hit(1); } }\n";
        out.clear();
        prof_gate(&file(wrong, "tlb", FileClass::Lib), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");

        // ProfSink impls are the seam itself.
        let seam =
            "impl ProfSink for Tally { fn rc_hit(&mut self, n: u64) { self.o.rc_hit(n); } }\n";
        out.clear();
        prof_gate(&file(seam, "tlb", FileClass::Lib), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hotpath_walks_the_call_graph() {
        let src = "impl CacheSim {\n\
                   pub fn access(&mut self, i: usize) -> u64 { self.lane(i) }\n\
                   fn lane(&self, i: usize) -> u64 { self.slots[i] }\n\
                   fn unrelated(&self) -> u64 { self.slots[0] }\n\
                   }\n";
        let files = vec![file(src, "replacement", FileClass::Lib)];
        let scan = no_panic_hotpath(&files, &manifest());
        let (out, resolved) = (scan.findings, scan.resolved);
        assert!(resolved, "entry must resolve");
        // `lane` is reachable and indexing fires there; `unrelated` is not
        // reachable (nothing calls it) — wait, `slots[0]`: index by
        // literal is still indexing, but the fn is unreachable.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.message.contains("indexing"), "{out:?}");
    }

    #[test]
    fn hotpath_constructs() {
        let src = "impl CacheSim {\n\
                   pub fn access(&mut self, n: u64, d: u64) -> u64 {\n\
                   assert!(n > 0);\n\
                   debug_assert!(n > 0);\n\
                   let a = n / d;\n\
                   let b = n / 2;\n\
                   let c = self.v.pop().unwrap();\n\
                   let t = self.0[0];\n\
                   a + b + c + t\n\
                   }\n}\n";
        let files = vec![file(src, "replacement", FileClass::Lib)];
        let msgs: Vec<String> = no_panic_hotpath(&files, &manifest())
            .findings
            .into_iter()
            .map(|(_, f)| f.message)
            .collect();
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("assert!")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`/`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("unwrap")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("indexing")), "{msgs:?}");
    }

    #[test]
    fn hotpath_reports_entries_naming_no_function_on_whole_scans() {
        let m = parse_manifest(
            "[hotpath]\n\
             entries = [\"CacheSim::access\", \"BatchTlb::access_or_fill_batch\", \"gone\"]\n\
             crates = [\"replacement\", \"tlb\"]\n",
        )
        .expect("manifest");
        let sim = "impl CacheSim { pub fn access(&mut self) -> u64 { 0 } }\n";
        // `Tlb::access_or_fill_batch` exists, but the entry's qualifier
        // names a deleted type: the entry must not count as resolved.
        let tlb = "impl Tlb { pub fn access_or_fill_batch(&mut self) -> u64 { 0 } }\n";
        let whole = vec![
            file(sim, "replacement", FileClass::Lib),
            file(tlb, "tlb", FileClass::Lib),
        ];
        let scan = no_panic_hotpath(&whole, &m);
        assert!(scan.resolved, "CacheSim::access still resolves");
        assert_eq!(scan.unresolved, ["BatchTlb::access_or_fill_batch", "gone"]);

        // A partial scan (tlb not scanned, or only as test code) cannot
        // tell a missing entry from an unscanned one: nothing reported.
        let partial = vec![file(sim, "replacement", FileClass::Lib)];
        assert!(no_panic_hotpath(&partial, &m).unresolved.is_empty());
        let test_only = vec![
            file(sim, "replacement", FileClass::Lib),
            file(tlb, "tlb", FileClass::Test),
        ];
        assert!(no_panic_hotpath(&test_only, &m).unresolved.is_empty());
    }

    #[test]
    fn lock_order_cycle_and_clean_shapes() {
        let m = manifest();
        // Reversed orders in two functions: a cycle.
        let bad = "pub fn ab(a: &M, b: &M) { if let Ok(_x) = a.lock() { if let Ok(_y) = b.lock() {} } }\n\
                   pub fn ba(a: &M, b: &M) { if let Ok(_y) = b.lock() { if let Ok(_x) = a.lock() {} } }\n";
        let files = vec![file(bad, "sim", FileClass::Lib)];
        let out = lock_order(&files, &m);
        assert!(!out.is_empty(), "cycle must be reported");

        // Consistent order: no cycle.
        let good = "pub fn ab(a: &M, b: &M) { if let Ok(_x) = a.lock() { if let Ok(_y) = b.lock() {} } }\n\
                    pub fn ab2(a: &M, b: &M) { if let Ok(_x) = a.lock() { if let Ok(_y) = b.lock() {} } }\n";
        let files = vec![file(good, "sim", FileClass::Lib)];
        assert!(lock_order(&files, &m).is_empty());

        // The multicore.rs shapes: a temporary probe (guard dead after the
        // statement) followed by a scoped named guard — no nesting.
        let scoped = "pub fn run(tlbs: &[M], ram: &M, core: usize) {\n\
            let hit = { tlbs[core].lock().expect(\"tlb\").probe() };\n\
            let evicted = { let mut r = ram.lock().expect(\"ram\"); r.access() };\n\
            for t in tlbs { let mut g = t.lock().expect(\"tlb\"); g.shootdown(); }\n\
        }\n";
        let files = vec![file(scoped, "sim", FileClass::Lib)];
        assert!(
            lock_order(&files, &m).is_empty(),
            "{:?}",
            lock_order(&files, &m)
        );

        // A named guard held across another acquisition in the same scope
        // IS an edge; with the reverse elsewhere it cycles.
        let nested = "pub fn f(a: &M, b: &M) { let g = a.lock().unwrap(); let h = b.lock().unwrap(); }\n\
                      pub fn r(a: &M, b: &M) { let h = b.lock().unwrap(); let g = a.lock().unwrap(); }\n";
        let files = vec![file(nested, "sim", FileClass::Lib)];
        assert!(!lock_order(&files, &m).is_empty());
    }

    #[test]
    fn lock_receiver_names() {
        let src = "fn f(&self) { self.0.lock().unwrap(); tlbs[core].lock().unwrap(); ram.lock().unwrap(); }\n";
        let af = file(src, "sim", FileClass::Lib);
        let mut names = Vec::new();
        for si in 0..af.sig.len() {
            if kd(&af, si) == Some(TokenKind::Ident) && txt(&af, si) == "lock" {
                names.push(receiver_name(&af, si - 1).expect("name"));
            }
        }
        assert_eq!(names, ["self.0", "tlbs", "ram"]);
    }
}
