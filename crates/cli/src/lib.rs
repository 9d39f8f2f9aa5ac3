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

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

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
            println!("{}", commands::USAGE);
            return 0;
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}; try `atp help`");
            return 2;
        }
    };
    // `--help` or `-h` anywhere after a subcommand asks for the usage;
    // nothing runs.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", commands::USAGE);
        return 0;
    }
    match subcommand(rest) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
