//! `e2e`: end-to-end accesses/sec of every memory manager on one
//! workload, with a per-layer account of where the host time went.
//!
//! ```sh
//! cargo run --release --manifest-path atp-e2e/Cargo.toml -- \
//!     --workload zipf_mixed --seed 1 --seconds 10 --trace 1 [--out FILE] [--label REV]
//! ```
//!
//! One process runs one workload (`g500_hit`, `zipf_mixed`,
//! `uniform_miss`, `tenants_churn`) on one thread:
//!
//! 1. set-up, three times: generate the trace from `--seed`, build every
//!    cell's manager; `setup_s` is the median;
//! 2. rep rounds over every cell, rep-major and interleaved, until
//!    `--seconds` have passed (at least three rounds); each rep is one
//!    call of the public `atp_sim` driver on a fresh manager, timed from
//!    outside; with `--trace 1` each cell's rep is followed by a second
//!    call under the timing wrappers of `timing.rs`, for the per-layer
//!    metrics;
//! 3. checks: every call of a cell, traced or not, and its observed and
//!    profiled variants, must reach the same simulated `Costs`; at seed 1
//!    they must also match `pins.txt`.
//!
//! It prints every metric by name with its unit, then, as the last line,
//! one JSON object: `correct`, `attempted` and `failed` driver calls, and
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `--out` also writes an `atp-metrics-v1` artifact with
//! both, keeping rows of other workloads already in the file. The exit
//! code is 1 if any call failed its check, 2 on bad arguments.

mod cells;
mod pins;
mod report;
mod timing;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use cells::{CellId, Mgr, Outcome, Run};
use report::{Measured, Provenance};
use workload::{Trace, Workload};

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rep rounds per process, at least.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    label: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut label = "unlabelled".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: bad duration {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(value.clone()),
            "--label" => label = value.clone(),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        label,
    })
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Generates the trace and builds every manager, `SETUPS` times, keeping
/// the last trace. Returns it with the set-up and generation times.
fn set_up(w: Workload, seed: u64) -> (Trace, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut gen_s = Vec::with_capacity(SETUPS);
    let mut once = || {
        let t0 = Instant::now();
        let trace = w.generate(seed);
        gen_s.push(t0.elapsed().as_secs_f64());
        for cell in CellId::ALL {
            cells::construct(cell, &trace);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        trace
    };
    let mut trace = once();
    for _ in 1..SETUPS {
        // Only one trace alive at a time.
        drop(trace);
        trace = once();
    }
    (trace, setup_s, gen_s)
}

/// The outcome each call of `cell` must reproduce: its own first rep,
/// except where another cell runs the same simulation: the observed and
/// profiled variants of `x` must match `x`; the arena over classic sees
/// classic's access stream; and with a single tenant the tagged manager
/// is classic.
fn reference(cell: CellId, t: &Trace) -> CellId {
    match cell {
        CellId::XObserved | CellId::XProfiled => CellId::Mgr(Mgr::X),
        CellId::Arena => CellId::Mgr(Mgr::Classic),
        CellId::Tagged if t.ops.is_none() => CellId::Mgr(Mgr::Classic),
        other => other,
    }
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    a.measure == b.measure && a.warmup == b.warmup
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let (trace, setup_s, gen_s) = set_up(w, args.seed);
    eprintln!(
        "e2e {}: {} accesses, phys {} pages, set-up {:.2}s",
        w.name(),
        trace.pages.len(),
        trace.phys,
        report::median(&setup_s)
    );

    // Each round runs every cell once; with `--trace 1` a cell's traced
    // call follows its untraced one, so their ratio is paired.
    let mut reps: Vec<(CellId, Vec<Run>)> = CellId::ALL.iter().map(|&c| (c, Vec::new())).collect();
    let mut traced: Vec<(CellId, Vec<Run>)> =
        CellId::ALL.iter().map(|&c| (c, Vec::new())).collect();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let r0 = Instant::now();
        for ((cell, runs), (_, traced_runs)) in reps.iter_mut().zip(&mut traced) {
            runs.push(cells::run(*cell, &trace));
            if args.trace {
                traced_runs.extend(cells::run_traced(*cell, &trace));
            }
        }
        rounds += 1;
        let round_s = r0.elapsed().as_secs_f64();
        if rounds >= MIN_REPS && start.elapsed().as_secs_f64() + round_s > args.seconds {
            break;
        }
    }

    // Checks: every driver call against its reference outcome.
    let first = |c: CellId| -> Option<Outcome> {
        reps.iter()
            .find(|(rc, _)| *rc == c)
            .and_then(|(_, r)| r.first())
            .map(|r| r.outcome)
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let calls = reps
        .iter()
        .flat_map(|(c, runs)| runs.iter().map(move |r| (*c, r)))
        .chain(
            traced
                .iter()
                .flat_map(|(c, runs)| runs.iter().map(move |r| (*c, r))),
        );
    for (cell, r) in calls {
        attempted += 1;
        let want = first(reference(cell, &trace));
        if want.is_some_and(|want| !same(&r.outcome, &want)) {
            failed += 1;
            eprintln!(
                "FAIL {} {}: outcome differs from {}",
                w.name(),
                cell.name(),
                reference(cell, &trace).name()
            );
        }
    }
    for (cell, runs) in &reps {
        let Some(r) = runs.first() else { continue };
        println!("pin {}", pins::line(w.name(), cell.name(), &r.outcome));
        if args.seed == pins::PIN_SEED {
            if let Err(e) = pins::check(w.name(), cell.name(), &r.outcome) {
                failed += 1;
                eprintln!("FAIL {} {}: {e}", w.name(), cell.name());
            }
        }
    }

    let measured = Measured {
        reps,
        setup_s,
        gen_s,
        trace_accesses: trace.pages.len() as u64,
        peak_rss_mb: peak_rss_mb()?,
    };
    let e2e = report::end_to_end(&measured);
    let layers = if args.trace {
        report::per_layer(&measured, &traced)
    } else {
        Vec::new()
    };
    for m in e2e.iter().chain(&layers) {
        println!(
            "{:<48} {:>16.4} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(path) = &args.out {
        let p = Provenance {
            workload: w.name(),
            params: &w.params(),
            seed: args.seed,
            label: &args.label,
            reps: rounds,
        };
        report::write_artifact(path, &p, &e2e, &layers)?;
        eprintln!("wrote {path}");
    }
    println!("cells_run {attempted} cells_failed {failed} reps {rounds}");
    let correct = failed == 0;
    let shown = if args.trace { &layers } else { &e2e };
    println!("{}", report::result_line(correct, attempted, failed, shown));
    Ok(correct)
}
