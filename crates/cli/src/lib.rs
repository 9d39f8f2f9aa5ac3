//! The `atp` command-line tool.
//!
//! Subcommands (see `atp help`):
//!
//! * `simulate` — run one workload against one memory manager and print the
//!   address-translation cost breakdown; `--metrics`, `--trace-events`, and
//!   `--window` export machine-readable artifacts;
//! * `sweep` — the Figure-1 huge-page-size sweep on any workload, fanned
//!   out over worker threads;
//! * `tenants` — the multi-tenant sweep: N ASID-tagged address spaces ×
//!   activity skew over one shared physical pool, with per-tenant
//!   metrics export;
//! * `multicore` — per-core TLBs over a shared page cache with
//!   TLB-shootdown accounting;
//! * `trace record|stats|mrc` — capture workloads to the binary trace
//!   format, summarize them, and compute LRU miss-ratio curves;
//! * `bench compare` — per-cell paired-ratio drift between two stored
//!   hotpath bench artifacts, with an optional `--gate-drift` threshold;
//! * `calibrate` — derive ε from device/walk latency assumptions.
//!
//! All logic lives in this library crate so it is unit-testable; `main` is
//! a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `print!` that hands a failed write back to the enclosing function as
/// an [`ArgError`] (through `?`) instead of panicking; see
/// [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))?
    };
}

/// `println!` through [`write_stdout`], like [`out!`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// The message of the error a write to a closed stdout becomes. [`run`]
/// ends the command on it with exit 0 and nothing on stderr, which is what
/// a reader that stops early (`atp help | head -1`) expects.
const STDOUT_CLOSED: &str = "stdout is closed";

/// Writes `args` to stdout. A closed stdout (`EPIPE`) becomes the
/// [`STDOUT_CLOSED`] error and any other failed write an error naming it,
/// where `print!` would panic. Unit tests print through `print!` so the
/// test harness still captures what a command writes.
pub(crate) fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), ArgError> {
    #[cfg(test)]
    {
        print!("{args}");
        Ok(())
    }
    #[cfg(not(test))]
    {
        use std::io::Write;
        std::io::stdout()
            .write_fmt(args)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::BrokenPipe => ArgError(STDOUT_CLOSED.into()),
                _ => ArgError(format!("write stdout: {e}")),
            })
    }
}

/// The exit code of a finished command: 0 on success or a closed stdout,
/// otherwise 2 with the error on stderr.
fn exit_code(result: Result<(), ArgError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) if e.0 == STDOUT_CLOSED => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Entry point: dispatches `argv[1]` as a subcommand. Returns the process
/// exit code.
pub fn run(argv: &[String]) -> i32 {
    let Some(cmd) = argv.first().map(String::as_str) else {
        eprintln!("{}", commands::USAGE);
        return 2;
    };
    let rest = &argv[1..];
    let subcommand: fn(&[String]) -> Result<(), ArgError> = match cmd {
        "simulate" => commands::simulate,
        "sweep" => commands::sweep_cmd,
        "tenants" => commands::tenants_cmd,
        "multicore" => commands::multicore_cmd,
        "trace" => commands::trace_cmd,
        "bench" => commands::bench_cmd,
        "calibrate" => commands::calibrate,
        "help" | "--help" | "-h" => {
            return exit_code(write_stdout(format_args!("{}\n", commands::USAGE)))
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}; try `atp help`");
            return 2;
        }
    };
    // `--help` or `-h` anywhere after a subcommand asks for the usage;
    // nothing runs.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return exit_code(write_stdout(format_args!("{}\n", commands::USAGE)));
    }
    exit_code(subcommand(rest))
}
