//! Minimal, dependency-free argument parsing.
//!
//! The workspace's sanctioned dependency list has no CLI parser, so this is
//! a small `--key value` / `--flag` parser with typed accessors and helpful
//! errors. Positional arguments are collected in order.

use std::collections::HashMap;

/// Parsed arguments: flags, key-value options, and positionals.
#[derive(Clone, Debug, Default)]
pub struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// A parse or validation error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (excluding the program/subcommand names).
    /// `bool_flags` names options that take no value.
    ///
    /// Repeating an option or flag is an error: silently letting the last
    /// occurrence win hides typos in long command lines (`--seed 1 … --seed
    /// 2` almost always means an editing mistake, not an override).
    pub fn parse(raw: &[String], bool_flags: &[&str]) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    if out.flags.iter().any(|f| f == name) {
                        return Err(ArgError(format!("--{name} given more than once")));
                    }
                    out.flags.push(name.to_string());
                    i += 1;
                } else {
                    let value = raw
                        .get(i + 1)
                        .ok_or_else(|| ArgError(format!("--{name} expects a value")))?;
                    if value.starts_with("--") {
                        return Err(ArgError(format!("--{name} expects a value, got {value}")));
                    }
                    if out.opts.insert(name.to_string(), value.clone()).is_some() {
                        return Err(ArgError(format!("--{name} given more than once")));
                    }
                    i += 2;
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Errors on any option or flag whose name is not in `known` — a typo'd
    /// `--warmpup 0` would otherwise parse fine and be silently ignored,
    /// leaving the default in effect. All unknown names are reported at
    /// once, sorted, so one rerun fixes everything.
    pub fn check_known(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut unknown: Vec<&str> = self
            .opts
            .keys()
            .map(String::as_str)
            .chain(self.flags.iter().map(String::as_str))
            .filter(|name| !known.contains(name))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let list: Vec<String> = unknown.iter().map(|n| format!("--{n}")).collect();
        Err(ArgError(format!("unknown option(s): {}", list.join(", "))))
    }

    /// Errors on any positional argument, for subcommands that take only
    /// options: a stray word (`atp simulate zipf`) would otherwise be
    /// ignored and the run would go ahead on the defaults.
    pub fn reject_positionals(&self) -> Result<(), ArgError> {
        match self.positional.first() {
            None => Ok(()),
            Some(p) => Err(ArgError(format!(
                "unexpected argument {p:?}: this subcommand takes only --options"
            ))),
        }
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A u64 option with a default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => parse_u64(s).map_err(|_| ArgError(format!("--{name}: bad integer {s:?}"))),
        }
    }

    /// An f64 option with a default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{name}: bad float {s:?}"))),
        }
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }
}

/// Parses integers with `k`/`m`/`g` suffixes (binary) and `2^n` notation.
#[allow(clippy::result_unit_err)] // callers wrap with contextual ArgError messages
pub fn parse_u64(s: &str) -> Result<u64, ()> {
    let s = s.trim();
    if let Some(exp) = s.strip_prefix("2^") {
        let e: u32 = exp.parse().map_err(|_| ())?;
        return 1u64.checked_shl(e).ok_or(());
    }
    let (num, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let base: u64 = num.parse().map_err(|_| ())?;
    base.checked_mul(mult).ok_or(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_options_flags_positionals() {
        let a = Args::parse(
            &argv(&["--phys", "2^20", "trace.atpt", "--paper", "--seed", "7"]),
            &["paper"],
        )
        .unwrap();
        assert_eq!(a.get("phys"), Some("2^20"));
        assert!(a.flag("paper"));
        assert_eq!(a.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(a.positional(0), Some("trace.atpt"));
        assert_eq!(a.positional_len(), 1);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--phys"]), &[]).is_err());
        assert!(Args::parse(&argv(&["--phys", "--seed", "2"]), &[]).is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv(&[]), &[]).unwrap();
        assert_eq!(a.u64_or("phys", 42).unwrap(), 42);
        assert_eq!(a.f64_or("epsilon", 0.01).unwrap(), 0.01);
        assert_eq!(a.get_or("workload", "bimodal"), "bimodal");
        assert!(!a.flag("paper"));
    }

    #[test]
    fn bad_numbers_are_errors() {
        let a = Args::parse(&argv(&["--phys", "xyz"]), &[]).unwrap();
        assert!(a.u64_or("phys", 0).is_err());
        let a = Args::parse(&argv(&["--epsilon", "nanx"]), &[]).unwrap();
        assert!(a.f64_or("epsilon", 0.0).is_err());
    }

    #[test]
    fn duplicate_options_are_rejected() {
        let err = Args::parse(&argv(&["--seed", "1", "--seed", "2"]), &[]).unwrap_err();
        assert!(err.0.contains("--seed"), "message names the option: {err}");
        assert!(err.0.contains("more than once"));
        let err = Args::parse(&argv(&["--paper", "--paper"]), &["paper"]).unwrap_err();
        assert!(err.0.contains("--paper"));
    }

    #[test]
    fn unknown_options_are_rejected_sorted() {
        let a = Args::parse(
            &argv(&["--seed", "1", "--warmpup", "0", "--zeed", "9"]),
            &[],
        )
        .unwrap();
        assert!(a.check_known(&["seed", "warmup"]).is_err());
        let err = a.check_known(&["seed"]).unwrap_err();
        // Both typos reported at once, in sorted order.
        assert_eq!(err.0, "unknown option(s): --warmpup, --zeed");
        a.check_known(&["seed", "warmpup", "zeed"]).unwrap();
    }

    #[test]
    fn check_known_covers_flags_too() {
        let a = Args::parse(&argv(&["--observe"]), &["observe"]).unwrap();
        assert!(a.check_known(&[]).is_err());
        a.check_known(&["observe"]).unwrap();
    }

    #[test]
    fn reject_positionals_names_the_first_one() {
        let a = Args::parse(&argv(&["--seed", "1", "zipf", "x"]), &[]).unwrap();
        let err = a.reject_positionals().unwrap_err();
        assert!(err.0.contains("\"zipf\""), "{err}");
        Args::parse(&argv(&["--seed", "1"]), &[])
            .unwrap()
            .reject_positionals()
            .unwrap();
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_u64("4096"), Ok(4096));
        assert_eq!(parse_u64("4k"), Ok(4096));
        assert_eq!(parse_u64("2M"), Ok(2 << 20));
        assert_eq!(parse_u64("1g"), Ok(1 << 30));
        assert_eq!(parse_u64("2^24"), Ok(1 << 24));
        assert!(parse_u64("2^70").is_err());
        assert!(parse_u64("abc").is_err());
    }
}
