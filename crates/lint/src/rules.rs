//! The rule set: each rule is a token-level scan over one file.
//!
//! Rules receive a [`FileInfo`] (tokens, significant-token index, test
//! regions, crate/class scope) and push [`Finding`]s. Suppressions are
//! applied by the engine afterwards, so rules stay oblivious to them.

use crate::lexer::{Doc, Token, TokenKind};
use crate::{FileClass, FileInfo, Finding};

/// Crates whose sources must never read a wall clock: everything that sits
/// between a trace and a reported cost, plus the observability layer whose
/// exports are pinned byte-for-byte.
const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "types",
    "ballsbins",
    "tlb",
    "replacement",
    "memmgmt",
    "obs",
    "trace",
    "workloads",
    "core",
];

/// Crates where a `HashMap` iteration order can reach a reported result
/// (costs, statistics, exports, placements).
const RESULT_AFFECTING_CRATES: &[&str] = &[
    "types",
    "hash",
    "ballsbins",
    "tlb",
    "replacement",
    "memmgmt",
    "sim",
    "trace",
    "core",
    "obs",
    "workloads",
];

/// Crates whose public API must be documented (the paper-facing surface).
const DOCS_CRATES: &[&str] = &["types", "ballsbins", "tlb"];

/// Identifiers that mean "ambient randomness" wherever they appear.
const AMBIENT_RANDOMNESS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "ThreadRng",
    "OsRng",
    "getrandom",
    "random_seed",
];

/// Runs every rule applicable to this file.
pub(crate) fn run_all(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    if DETERMINISTIC_CRATES.contains(&f.crate_dir) {
        no_wall_clock(f, out);
    }
    no_ambient_randomness(f, out);
    if RESULT_AFFECTING_CRATES.contains(&f.crate_dir)
        && matches!(f.class, FileClass::Lib | FileClass::Bin)
    {
        no_random_state(f, out);
    }
    if f.class == FileClass::Lib {
        unwrap_policy(f, out);
    }
    if DOCS_CRATES.contains(&f.crate_dir) && f.class == FileClass::Lib {
        pub_api_docs(f, out);
    }
    if RESULT_AFFECTING_CRATES.contains(&f.crate_dir) && f.class == FileClass::Lib {
        no_io_in_core(f, out);
    }
}

/// Macros that write to the process's stdout/stderr.
const IO_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

/// `no-io-in-core`: `print!`-family macros and `std::io::stdout`/`stderr`
/// handles in core library code (outside `#[cfg(test)]`). The core
/// crates return data; rendering and progress belong to the CLI and the
/// benches, where stdout is part of the contract — a stray `eprintln!`
/// in a hot loop is both a perf trap and unscrapeable output.
fn no_io_in_core(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for (si, &i) in f.sig.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident || f.in_test(t) {
            continue;
        }
        let txt = f.text(t);
        if IO_MACROS.contains(&txt) && sig_kind(f, si + 1) == Some(TokenKind::Punct(b'!')) {
            out.push(f.finding(
                "no-io-in-core",
                t,
                format!(
                    "`{txt}!` in core crate `{}` — library code returns data; \
                     print at the CLI/bench boundary instead",
                    f.crate_dir
                ),
            ));
        } else if (txt == "stdout" || txt == "stderr")
            && si > 1
            && matches!(sig_kind(f, si - 1), Some(TokenKind::Punct(b':')))
            && matches!(sig_kind(f, si - 2), Some(TokenKind::Punct(b':')))
            && sig_text(f, si - 3) == Some("io")
        {
            out.push(f.finding(
                "no-io-in-core",
                t,
                format!(
                    "`io::{txt}` in core crate `{}` — library code returns data; \
                     write at the CLI/bench boundary instead",
                    f.crate_dir
                ),
            ));
        }
    }
}

/// `no-wall-clock`: any mention of `Instant` or `SystemTime` in a
/// deterministic crate, tests included — simulation results and their
/// tests must be pure functions of (seed, trace, config).
fn no_wall_clock(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for &i in &f.sig {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let txt = f.text(t);
        if txt == "Instant" || txt == "SystemTime" {
            out.push(f.finding(
                "no-wall-clock",
                t,
                format!(
                    "`{txt}` in deterministic crate `{}` — results must be a pure \
                     function of (seed, trace, config); time at the CLI/bench boundary instead",
                    f.crate_dir
                ),
            ));
        }
    }
}

/// `no-ambient-randomness`: `thread_rng()`, `from_entropy()`, `OsRng`,
/// or any `rand::` path, anywhere in the workspace. All randomness flows
/// from explicit seeds through `atp_hash::CounterRng`.
fn no_ambient_randomness(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for (si, &i) in f.sig.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let txt = f.text(t);
        if AMBIENT_RANDOMNESS.contains(&txt) {
            out.push(f.finding(
                "no-ambient-randomness",
                t,
                format!(
                    "`{txt}` draws entropy from the environment — seed a \
                     `CounterRng` explicitly so every run is replayable"
                ),
            ));
        } else if txt == "rand" && next_is_path_sep(f, si) {
            out.push(
                f.finding(
                    "no-ambient-randomness",
                    t,
                    "`rand::` path — the workspace is hermetic and seeds all \
                 randomness through `atp_hash::CounterRng`"
                        .to_string(),
                ),
            );
        }
    }
}

/// True if the significant tokens after index `si` are `::`.
fn next_is_path_sep(f: &FileInfo<'_>, si: usize) -> bool {
    matches!(
        (sig_kind(f, si + 1), sig_kind(f, si + 2)),
        (Some(TokenKind::Punct(b':')), Some(TokenKind::Punct(b':')))
    )
}

fn sig_tok<'a>(f: &'a FileInfo<'_>, si: usize) -> Option<&'a Token> {
    f.sig.get(si).map(|&i| &f.tokens[i])
}

fn sig_kind(f: &FileInfo<'_>, si: usize) -> Option<TokenKind> {
    sig_tok(f, si).map(|t| t.kind)
}

fn sig_text<'a>(f: &'a FileInfo<'_>, si: usize) -> Option<&'a str> {
    sig_tok(f, si).map(|t| t.text(f.src))
}

/// `no-random-state`: a bare `HashMap`/`HashSet` in a result-affecting
/// crate (outside `#[cfg(test)]`) uses std's `RandomState`, whose
/// per-process seed makes iteration order — and any float summation or
/// export driven by it — differ across runs. Escapes: an explicit third
/// (map) / second (set) type parameter, or `with_hasher` /
/// `with_capacity_and_hasher` construction.
fn no_random_state(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for (si, &i) in f.sig.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident || f.in_test(t) {
            continue;
        }
        let txt = f.text(t);
        let hasher_params = match txt {
            "HashMap" => 2usize, // K, V, S → two commas
            "HashSet" => 1usize, // T, S → one comma
            _ => continue,
        };
        if has_explicit_hasher(f, si, hasher_params) {
            continue;
        }
        out.push(f.finding(
            "no-random-state",
            t,
            format!(
                "std `{txt}` defaults to RandomState (iteration order varies \
                 per process) — use `atp_hash::Fx{txt}` or pass an explicit \
                 deterministic hasher"
            ),
        ));
    }
}

/// Checks the tokens after a `HashMap`/`HashSet` ident for an explicit
/// hasher: `<…,…,S>` with `needed_commas` top-level commas, possibly
/// after a turbofish `::`, or a `::with_hasher(..)` call.
fn has_explicit_hasher(f: &FileInfo<'_>, si: usize, needed_commas: usize) -> bool {
    let mut j = si + 1;
    // Optional `::` (turbofish or constructor path).
    if next_is_path_sep(f, si) {
        j = si + 3;
        if let Some(name) = sig_text(f, j) {
            if name == "with_hasher" || name == "with_capacity_and_hasher" {
                return true;
            }
        }
    }
    if sig_kind(f, j) != Some(TokenKind::Punct(b'<')) {
        return false;
    }
    // Count top-level commas inside the angle brackets. `->`/`=>` are the
    // only places a `>` is not a closer in type position.
    let mut depth = 0usize;
    let mut commas = 0usize;
    for step in 0..512 {
        let Some(t) = sig_tok(f, j + step) else {
            return false;
        };
        match t.kind {
            TokenKind::Punct(b'<') => depth += 1,
            TokenKind::Punct(b'>') => {
                if let Some(prev) = sig_tok(f, j + step - 1) {
                    if matches!(prev.kind, TokenKind::Punct(b'-') | TokenKind::Punct(b'='))
                        && prev.end == t.start
                    {
                        continue;
                    }
                }
                depth -= 1;
                if depth == 0 {
                    return commas >= needed_commas;
                }
            }
            TokenKind::Punct(b',') if depth == 1 => commas += 1,
            _ => {}
        }
    }
    false
}

/// `unwrap-policy`: `.unwrap()` / `.expect(…)` (and their `::` path
/// forms) in library code outside `#[cfg(test)]`. Library panics turn a
/// caller's recoverable situation into an abort; return `Result`, use a
/// checked alternative, or allow with a reason.
fn unwrap_policy(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for (si, &i) in f.sig.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident || f.in_test(t) {
            continue;
        }
        let txt = f.text(t);
        if txt != "unwrap" && txt != "expect" {
            continue;
        }
        // Preceded by `.` (method call) or `::` (path form)?
        let dotted = si > 0
            && matches!(sig_kind(f, si - 1), Some(TokenKind::Punct(b'.')))
            // Guard against `..` (range) followed by a call — `a..unwrap`
            // is not real Rust, but stay strict anyway.
            && !(si > 1 && matches!(sig_kind(f, si - 2), Some(TokenKind::Punct(b'.'))));
        let pathed = si > 1
            && matches!(sig_kind(f, si - 1), Some(TokenKind::Punct(b':')))
            && matches!(sig_kind(f, si - 2), Some(TokenKind::Punct(b':')));
        if !dotted && !pathed {
            continue;
        }
        // A method *call* needs parentheses; the path form is a panic
        // site even as a bare fn value (`.map(Option::unwrap)`).
        if dotted && sig_kind(f, si + 1) != Some(TokenKind::Punct(b'(')) {
            continue;
        }
        // `self.expect(…)` is a user-defined method (e.g. the obs JSON
        // parser's Result-returning `expect`), not Option/Result::expect
        // — impls directly on Option/Self=Option don't occur here.
        if dotted && si >= 2 && sig_text(f, si - 2) == Some("self") {
            continue;
        }
        out.push(f.finding(
            "unwrap-policy",
            t,
            format!(
                "`{txt}` in library code — propagate a `Result`, use a checked \
                 alternative, or add `// atp-lint: allow(unwrap-policy, reason = …)` \
                 stating why this cannot fail"
            ),
        ));
    }
}

/// Item keywords that can follow `pub`. `mod` is deliberately absent:
/// modules in this workspace are documented by `//!` inner docs in their
/// own files, which rustdoc attaches to the module.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// Modifiers that may sit between `pub` and the item keyword.
const ITEM_MODIFIERS: &[&str] = &["unsafe", "async", "extern"];

/// `pub-api-docs`: every `pub` item (and named `pub` field) in the
/// paper-facing crates carries a doc comment. `pub(crate)`/`pub(super)`
/// are not public API; `pub use` re-exports inherit their target's docs;
/// `#[doc(hidden)]` opts out explicitly.
fn pub_api_docs(f: &FileInfo<'_>, out: &mut Vec<Finding>) {
    for (si, &i) in f.sig.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident || f.text(t) != "pub" || f.in_test(t) {
            continue;
        }
        // Restricted visibility is not public API.
        if sig_kind(f, si + 1) == Some(TokenKind::Punct(b'(')) {
            continue;
        }
        // Identify what is being made pub.
        let mut j = si + 1;
        let mut item_kw: Option<&str> = None;
        for _ in 0..4 {
            match sig_text(f, j) {
                Some(kw) if ITEM_KEYWORDS.contains(&kw) => {
                    item_kw = Some(kw);
                    break;
                }
                Some(m) if ITEM_MODIFIERS.contains(&m) => j += 1,
                // `extern "C" fn`: skip the ABI string.
                _ if sig_kind(f, j) == Some(TokenKind::Literal) => j += 1,
                _ => break,
            }
        }
        let described = match item_kw {
            Some(kw) => {
                let name = sig_text(f, j + 1).unwrap_or("?");
                format!("{kw} `{name}`")
            }
            None => {
                // `pub name: Type` — a named struct field.
                let is_field = matches!(sig_kind(f, si + 1), Some(TokenKind::Ident))
                    && sig_kind(f, si + 2) == Some(TokenKind::Punct(b':'))
                    && sig_kind(f, si + 3) != Some(TokenKind::Punct(b':'));
                if !is_field {
                    continue; // `pub use`, tuple fields, macro oddities
                }
                format!("field `{}`", sig_text(f, si + 1).unwrap_or("?"))
            }
        };
        if has_docs_before(f, i) {
            continue;
        }
        out.push(f.finding(
            "pub-api-docs",
            t,
            format!(
                "missing doc comment on public {described} — the {} crate is \
                 paper-facing API; document it or mark it #[doc(hidden)]",
                f.crate_dir
            ),
        ));
    }
}

/// Walks backwards from raw-token index `i` (the `pub`) over attributes
/// and plain comments, looking for an outer doc comment or a `#[doc…]`
/// attribute.
fn has_docs_before(f: &FileInfo<'_>, i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        let t = &f.tokens[k];
        match t.kind {
            TokenKind::LineComment(Doc::Outer) | TokenKind::BlockComment(Doc::Outer) => {
                return true;
            }
            TokenKind::LineComment(_) | TokenKind::BlockComment(_) => continue,
            TokenKind::Punct(b']') => {
                // Walk back across the attribute to its `#`, checking for
                // `doc` (covers #[doc = …] and #[doc(hidden)]).
                let mut depth = 1usize;
                let mut has_doc = false;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match f.tokens[k].kind {
                        TokenKind::Punct(b']') => depth += 1,
                        TokenKind::Punct(b'[') => depth -= 1,
                        TokenKind::Ident if f.text(&f.tokens[k]) == "doc" => has_doc = true,
                        _ => {}
                    }
                }
                if has_doc {
                    return true;
                }
                // Step over the `#`.
                if k > 0 && f.tokens[k - 1].kind == TokenKind::Punct(b'#') {
                    k -= 1;
                }
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_rust_source, FileCtx};

    fn run(src: &str, crate_dir: &str, class: FileClass) -> Vec<Finding> {
        analyze_rust_source(
            src,
            &FileCtx {
                path: "test.rs".to_string(),
                crate_dir: crate_dir.to_string(),
                class,
            },
        )
    }

    fn rules_fired(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn finding_columns_are_character_based_after_non_ascii() {
        // The comment holds three multi-byte characters (ψ → é); the
        // violation right after it must report its editor column, not a
        // byte offset (which would be 3 higher).
        let src = "/* ψ→é */ x.unwrap();\n";
        let f = run(src, "sim", FileClass::Lib);
        let uw = f
            .iter()
            .find(|f| f.rule == "unwrap-policy")
            .expect("unwrap-policy fires");
        assert_eq!((uw.line, uw.col), (1, 13), "char column, not byte column");
    }

    #[test]
    fn wall_clock_scoped_by_crate() {
        let src = "use std::time::Instant;\n";
        assert!(rules_fired(&run(src, "sim", FileClass::Lib)).contains(&"no-wall-clock"));
        assert!(!rules_fired(&run(src, "cli", FileClass::Lib)).contains(&"no-wall-clock"));
    }

    #[test]
    fn random_state_escapes() {
        // Bare map: flagged.
        let bad = "struct S { m: HashMap<u64, u64> }\n";
        assert!(rules_fired(&run(bad, "trace", FileClass::Lib)).contains(&"no-random-state"));
        // Explicit hasher: fine.
        let good = "struct S { m: HashMap<u64, u64, FxBuildHasher> }\n";
        assert!(!rules_fired(&run(good, "trace", FileClass::Lib)).contains(&"no-random-state"));
        // Nested generics don't confuse the comma count.
        let nested = "struct S { m: HashMap<Foo<u8, u8>, u64> }\n";
        assert!(rules_fired(&run(nested, "trace", FileClass::Lib)).contains(&"no-random-state"));
        // with_hasher constructor: fine.
        let ctor = "fn f() { let m = HashMap::with_hasher(FxBuildHasher::default()); }\n";
        assert!(!rules_fired(&run(ctor, "trace", FileClass::Lib)).contains(&"no-random-state"));
        // In cfg(test): fine.
        let test =
            "#[cfg(test)]\nmod tests { fn f() { let m: HashMap<u8,u8> = HashMap::new(); } }\n";
        assert!(!rules_fired(&run(test, "trace", FileClass::Lib)).contains(&"no-random-state"));
    }

    #[test]
    fn unwrap_policy_scoping() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(rules_fired(&run(src, "sim", FileClass::Lib)).contains(&"unwrap-policy"));
        // Not in tests, bins, or benches.
        assert!(!rules_fired(&run(src, "sim", FileClass::Test)).contains(&"unwrap-policy"));
        assert!(!rules_fired(&run(src, "sim", FileClass::Bin)).contains(&"unwrap-policy"));
        // unwrap_or and friends are fine.
        let or = "fn f() { x.unwrap_or(0); x.unwrap_or_default(); }\n";
        assert!(!rules_fired(&run(or, "sim", FileClass::Lib)).contains(&"unwrap-policy"));
        // Path form counts.
        let path = "fn f() { xs.map(Option::unwrap); }\n";
        assert!(rules_fired(&run(path, "sim", FileClass::Lib)).contains(&"unwrap-policy"));
        // A method *named* unwrap being defined is not a call site.
        let def = "impl S { fn unwrap(self) {} }\n";
        assert!(!rules_fired(&run(def, "sim", FileClass::Lib)).contains(&"unwrap-policy"));
        // Calling one's own Result-returning `expect` is not std expect.
        let own = "fn parse(&mut self) { self.expect(b'[')?; }\n";
        assert!(!rules_fired(&run(own, "obs", FileClass::Lib)).contains(&"unwrap-policy"));
    }

    #[test]
    fn pub_api_docs_basics() {
        let undocumented = "pub fn f() {}\n";
        assert!(rules_fired(&run(undocumented, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let documented = "/// Does f things.\npub fn f() {}\n";
        assert!(!rules_fired(&run(documented, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let attr_between = "/// Docs.\n#[inline]\npub fn f() {}\n";
        assert!(!rules_fired(&run(attr_between, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let hidden = "#[doc(hidden)]\npub fn f() {}\n";
        assert!(!rules_fired(&run(hidden, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let restricted = "pub(crate) fn f() {}\n";
        assert!(!rules_fired(&run(restricted, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let reexport = "pub use foo::Bar;\n";
        assert!(!rules_fired(&run(reexport, "types", FileClass::Lib)).contains(&"pub-api-docs"));
        let field = "pub struct S {\n    pub x: u64,\n}\n";
        let fired = run(field, "types", FileClass::Lib);
        // struct S undocumented + field x undocumented.
        assert_eq!(
            fired.iter().filter(|f| f.rule == "pub-api-docs").count(),
            2,
            "{fired:?}"
        );
        // Out of scope crate: quiet.
        assert!(!rules_fired(&run(undocumented, "sim", FileClass::Lib)).contains(&"pub-api-docs"));
    }

    #[test]
    fn io_in_core_scoping() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert!(rules_fired(&run(src, "sim", FileClass::Lib)).contains(&"no-io-in-core"));
        assert!(rules_fired(&run(src, "obs", FileClass::Lib)).contains(&"no-io-in-core"));
        // The CLI and bench crates own stdout; bins/tests/benches are fine
        // everywhere.
        assert!(!rules_fired(&run(src, "cli", FileClass::Lib)).contains(&"no-io-in-core"));
        assert!(!rules_fired(&run(src, "bench", FileClass::Lib)).contains(&"no-io-in-core"));
        assert!(!rules_fired(&run(src, "sim", FileClass::Bin)).contains(&"no-io-in-core"));
        assert!(!rules_fired(&run(src, "sim", FileClass::Test)).contains(&"no-io-in-core"));
        let test = "#[cfg(test)]\nmod tests { fn f() { println!(\"x\"); } }\n";
        assert!(!rules_fired(&run(test, "sim", FileClass::Lib)).contains(&"no-io-in-core"));
        // Every macro in the family, plus the raw handles.
        for m in ["print", "eprint", "eprintln", "dbg"] {
            let src = format!("fn f() {{ {m}!(1); }}\n");
            assert!(
                rules_fired(&run(&src, "trace", FileClass::Lib)).contains(&"no-io-in-core"),
                "{m}"
            );
        }
        let handle = "fn f() { let mut o = std::io::stdout(); }\n";
        assert!(rules_fired(&run(handle, "sim", FileClass::Lib)).contains(&"no-io-in-core"));
        let handle = "use std::io::stderr;\n";
        assert!(rules_fired(&run(handle, "sim", FileClass::Lib)).contains(&"no-io-in-core"));
        // A local named `println` without `!`, a user `stdout` variable, and
        // `writeln!` into a string are all fine.
        let ok = "fn f(out: &mut String) { let println = 1; let stdout = 2; \
                  writeln!(out, \"{println}{stdout}\").ok(); }\n";
        assert!(!rules_fired(&run(ok, "sim", FileClass::Lib)).contains(&"no-io-in-core"));
    }

    #[test]
    fn ambient_randomness_everywhere() {
        let src = "fn f() { let r = thread_rng(); }\n";
        assert!(rules_fired(&run(src, "cli", FileClass::Bin)).contains(&"no-ambient-randomness"));
        let path = "use rand::Rng;\n";
        assert!(
            rules_fired(&run(path, "check", FileClass::Test)).contains(&"no-ambient-randomness")
        );
        // `rand` as a plain variable name is fine.
        let var = "fn f() { let rand = 3; }\n";
        assert!(!rules_fired(&run(var, "cli", FileClass::Lib)).contains(&"no-ambient-randomness"));
    }
}
