//! Hot-path throughput harness: accesses/sec for every TLB variant ×
//! policy × trace, written to `BENCH_hotpath.json` so the perf trajectory
//! of the single-probe slot-arena core is tracked over time.
//!
//! ```sh
//! cargo run --release -p atp-bench --bin hotpath              # full run
//! cargo run --release -p atp-bench --bin hotpath -- --quick   # CI smoke
//! cargo run --release -p atp-bench --bin hotpath -- --baseline BENCH_hotpath.json
//! cargo run --release -p atp-bench --bin hotpath -- --gate 1.5  # fail below floor
//! cargo run --release -p atp-bench --bin hotpath -- --gate 1.5 --gate-file BENCH_hotpath.json
//! ```
//!
//! Everything except the timing fields is deterministic: fixed seeds, a
//! fixed variant matrix, and a `hits` checksum per cell that pins the
//! simulated behaviour (if a refactor changes `hits`, it changed
//! *semantics*, not just speed). `--baseline` re-runs the matrix and
//! prints per-cell speedups against a previous JSON.
//!
//! The `full_*` variants drive [`Tlb`]'s scalar entry point, one
//! lookup-or-insert per access. The `batched_*` variants drive its batch
//! entry point, [`Tlb::access_or_fill_batch`] (speculative resolution
//! cache → validated retire → fused slow lane). Their median paired
//! ratios against the adjacent scalar cells are written to the JSON as
//! `hotpath_paired_ratio` gauges, and `--gate <floor>` turns those ratios
//! into an exit code — see `atp_bench::gate`.

use std::time::Instant;

use atp_bench::gate::{self, RatioRow};
use atp_replacement::{
    AnyPolicy, CacheSim, Clock, Fifo, Lru, Policy, PolicyBuild, PolicyKind, Sieve,
};
use atp_tlb::Tlb;
use atp_types::{NoProf, VirtHugePage, VirtPage};
use atp_workloads::{Graph500Trace, Sequential, Zipfian};

/// Paper-default fully-associative TLB size (Cascade Lake L2 dTLB).
const TLB_ENTRIES: u64 = 1536;
/// Cascade Lake L1 dTLB: 64 entries, fully associative in hardware. At
/// this size every translation structure is L1-cache-resident, so the
/// cells isolate probe/dispatch overhead rather than memory latency.
const L1_TLB_ENTRIES: u64 = 64;
/// Base pages per huge page for trace coarsening (2 MB / 4 kB).
const HUGE: u64 = 512;
/// Trace window length. Kept small enough (1 MB of `u64`s) to stay
/// cache-resident: a timed pass loops the window several times, so the
/// harness measures the translation structures, not the DRAM bandwidth of
/// streaming a giant trace array — which would add a uniform per-access
/// cost to every variant and compress all ratios toward 1×.
const TRACE_WINDOW: usize = 1 << 17;
/// Timed repetitions per cell, in both modes. `--quick` shortens each rep
/// (fewer rounds), never the rep count: the gate reads the median of the
/// per-rep paired ratios, and a median of 3 flipped a different gated cell
/// on host noise alone in about one run in five.
const REPS: usize = 11;

// ---------------------------------------------------------------------------
// Variant drivers
// ---------------------------------------------------------------------------

/// One benchmarkable TLB instance: runs a full pass over a trace of
/// huge-page ids and reports cumulative hits afterwards.
trait Driver {
    fn pass(&mut self, trace: &[u64]);
    fn hits(&self) -> u64;
}

struct FullDriver<P: Policy>(Tlb<u64, P>);
impl<P: Policy> Driver for FullDriver<P> {
    fn pass(&mut self, trace: &[u64]) {
        for &p in trace {
            let u = VirtHugePage(p);
            if self.0.lookup(u).is_none() {
                self.0.insert(u, p);
            }
        }
    }
    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
}

struct RawCacheDriver<P: Policy>(CacheSim<u64, P, u64>, u64);
impl<P: Policy> Driver for RawCacheDriver<P> {
    fn pass(&mut self, trace: &[u64]) {
        for &p in trace {
            if self.0.access_if_present(&p).is_none() {
                self.0.insert_cold_with(p, p);
            }
        }
        self.1 = self.0.hits();
    }
    fn hits(&self) -> u64 {
        self.1
    }
}

/// The batch entry point: the whole trace is fed through
/// `access_or_fill_batch` (speculative resolution cache + validated
/// retire), monomorphized over the same policy as the scalar cell it
/// pairs with. Same per-access semantics as `FullDriver<P>` (pinned by
/// the shared `hits` checksum), strictly less redundant work per access.
struct BatchedDriver<P: Policy>(Tlb<u64, P>);
impl<P: Policy> Driver for BatchedDriver<P> {
    fn pass(&mut self, trace: &[u64]) {
        // Feed raw pages straight into the pipeline; the newtype wrap
        // happens per lane inside, with no staging copy out here.
        self.0
            .access_or_fill_batch(trace, VirtHugePage, |u| u.0, NoProf);
    }
    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
}

/// `BatchedDriver` with the collecting profiler attached: same engine,
/// same trace, but every batch call reports resolution outcomes, probe
/// lengths, and miss runs into an `atp_obs::Profiler`. The `*_prof`
/// cells exist to *measure the measurement*: their paired ratios against
/// the unprofiled twins are written as non-gated info rows, so the cost
/// of profiling-on is tracked without ever gating CI on it.
struct ProfiledBatchedDriver<P: Policy>(Tlb<u64, P>, atp_obs::Profiler);
impl<P: Policy> Driver for ProfiledBatchedDriver<P> {
    fn pass(&mut self, trace: &[u64]) {
        self.0
            .access_or_fill_batch(trace, VirtHugePage, |u| u.0, &mut self.1);
    }
    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
}

/// A named driver factory; factories build a *fresh* TLB per repetition
/// so every rep does identical work from a cold start.
type Variant = (&'static str, Box<dyn Fn() -> Box<dyn Driver>>);

/// The variant matrix.
fn variants() -> Vec<Variant> {
    fn mono<P: Policy + PolicyBuild + 'static>() -> Box<dyn Driver> {
        Box::new(FullDriver(Tlb::<u64, P>::monomorphic(TLB_ENTRIES, 0)))
    }
    fn any(kind: PolicyKind) -> Box<dyn Driver> {
        Box::new(FullDriver(Tlb::<u64, AnyPolicy>::new(TLB_ENTRIES, kind, 0)))
    }
    fn batched<P: Policy + PolicyBuild + 'static>() -> Box<dyn Driver> {
        Box::new(BatchedDriver(Tlb::<u64, P>::monomorphic(TLB_ENTRIES, 0)))
    }
    // Scalar/batched groups are adjacent so each rep round measures the
    // compared cells back-to-back — see `gate::median_paired_ratio`.
    vec![
        ("full_lru_mono", Box::new(mono::<Lru>)),
        (
            "batched_full_lru",
            Box::new(|| Box::new(BatchedDriver(Tlb::lru(TLB_ENTRIES)))),
        ),
        (
            "batched_full_lru_prof",
            Box::new(|| {
                Box::new(ProfiledBatchedDriver(
                    Tlb::lru(TLB_ENTRIES),
                    atp_obs::Profiler::new(),
                ))
            }),
        ),
        (
            "full_lru_mono_l1",
            Box::new(|| Box::new(FullDriver(Tlb::<u64, Lru>::monomorphic(L1_TLB_ENTRIES, 0)))),
        ),
        (
            "batched_full_lru_l1",
            Box::new(|| Box::new(BatchedDriver(Tlb::lru(L1_TLB_ENTRIES)))),
        ),
        (
            "batched_full_lru_l1_prof",
            Box::new(|| {
                Box::new(ProfiledBatchedDriver(
                    Tlb::lru(L1_TLB_ENTRIES),
                    atp_obs::Profiler::new(),
                ))
            }),
        ),
        ("full_fifo_mono", Box::new(mono::<Fifo>)),
        ("batched_full_fifo", Box::new(batched::<Fifo>)),
        ("full_clock_mono", Box::new(mono::<Clock>)),
        ("batched_full_clock", Box::new(batched::<Clock>)),
        ("full_sieve_mono", Box::new(mono::<Sieve>)),
        ("batched_full_sieve", Box::new(batched::<Sieve>)),
        ("full_lru_any", Box::new(|| any(PolicyKind::Lru))),
        ("full_fifo_any", Box::new(|| any(PolicyKind::Fifo))),
        ("full_clock_any", Box::new(|| any(PolicyKind::Clock))),
        ("full_sieve_any", Box::new(|| any(PolicyKind::Sieve))),
        (
            "raw_cachesim_lru",
            Box::new(|| {
                let cap = TLB_ENTRIES as usize;
                Box::new(RawCacheDriver(CacheSim::new(cap, Lru::new(cap)), 0))
            }),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// Deterministic traces of huge-page ids (base-page traces coarsened by
/// the 512-page huge-page factor).
///
/// `zipf_hot`'s working set (1200 huge pages) fits the 1536-entry TLB, so
/// after warmup it exercises the *pure hit path* — the cell the slot-arena
/// refactor targets. `zipf` overflows capacity (4096 huge pages) and mixes
/// in the eviction path; `seq` is a wrapping in-capacity scan; `graph500`
/// is the paper's irregular BFS workload.
fn traces(window: usize) -> Vec<(&'static str, Vec<u64>)> {
    let zipf_hot: Vec<u64> = Zipfian::new(1, 1200 * HUGE, 1.1)
        .take(window)
        .map(|VirtPage(p)| p / HUGE)
        .collect();
    // 48 huge pages: fits the 64-entry `*_l1` variants, so those cells are
    // a pure hit path with every structure L1-cache-resident.
    let zipf_l1: Vec<u64> = Zipfian::new(2, 48 * HUGE, 1.1)
        .take(window)
        .map(|VirtPage(p)| p / HUGE)
        .collect();
    let zipf: Vec<u64> = Zipfian::new(1, 4096 * HUGE, 1.1)
        .take(window)
        .map(|VirtPage(p)| p / HUGE)
        .collect();
    let seq: Vec<u64> = Sequential::new(1024 * HUGE)
        .take(window)
        .map(|VirtPage(p)| p / HUGE)
        .collect();
    let g500 = Graph500Trace::generate(&atp_workloads::Graph500Config::small(5));
    let graph_once: Vec<u64> = g500.iter().map(|VirtPage(p)| p / HUGE).collect();
    let graph: Vec<u64> = graph_once.iter().copied().cycle().take(window).collect();
    vec![
        ("zipf_hot", zipf_hot),
        ("zipf_l1", zipf_l1),
        ("zipf", zipf),
        ("seq", seq),
        ("graph500", graph),
    ]
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Cell {
    id: String,
    variant: &'static str,
    trace: &'static str,
    accesses: usize,
    hits: u64,
    accesses_per_sec: f64,
    ns_per_access: f64,
    /// Per-rep timings in measurement order, for paired comparisons.
    rep_times: Vec<f64>,
}

/// One timed repetition of a cell: build a fresh TLB, run one untimed
/// warmup pass over the window to reach steady state, then time `rounds`
/// further passes. Returns the elapsed seconds and the driver's cumulative
/// hits (deterministic).
fn time_once(factory: &dyn Fn() -> Box<dyn Driver>, trace: &[u64], rounds: usize) -> (f64, u64) {
    let mut d = factory();
    d.pass(trace); // warmup: fill to steady state
    let t0 = Instant::now();
    for _ in 0..rounds {
        d.pass(trace);
    }
    (t0.elapsed().as_secs_f64(), d.hits())
}

/// Measures the whole matrix, *interleaving* repetitions across cells
/// (rep-major order) so slow machine phases — frequency scaling, noisy
/// neighbours — spread across every cell instead of sinking whichever one
/// they landed on. Each cell reports its median over `reps`.
fn measure_matrix(
    variants: &[Variant],
    traces: &[(&'static str, Vec<u64>)],
    reps: usize,
    rounds: usize,
) -> Vec<Cell> {
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); variants.len() * traces.len()];
    let mut hits: Vec<u64> = vec![0; variants.len() * traces.len()];
    // Traces outer, variants inner: adjacent variants (the scalar/batched
    // pairs) are measured back-to-back within each rep round.
    for _ in 0..reps {
        for (ti, (_, trace)) in traces.iter().enumerate() {
            for (vi, (_, factory)) in variants.iter().enumerate() {
                let cell = vi * traces.len() + ti;
                let (dt, h) = time_once(factory.as_ref(), trace, rounds);
                times[cell].push(dt);
                hits[cell] = h;
            }
        }
    }
    let mut cells = Vec::with_capacity(times.len());
    let mut cell = 0;
    for (name, _) in variants {
        for (trace_name, trace) in traces {
            let accesses = trace.len() * rounds;
            let rep_times = times[cell].clone();
            let ts = &mut times[cell];
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let median = ts[ts.len() / 2];
            cells.push(Cell {
                id: format!("{name}/{trace_name}"),
                variant: name,
                trace: trace_name,
                accesses,
                hits: hits[cell],
                accesses_per_sec: accesses as f64 / median,
                ns_per_access: median * 1e9 / accesses as f64,
                rep_times,
            });
            cell += 1;
        }
    }
    cells
}

/// Breakeven floor: gated hot cells must never *lose* to the fused core.
const BREAKEVEN: f64 = 1.0;
/// Parity guard for the overflowing miss-heavy `zipf` cell: the engine's
/// wins there (one probe per miss instead of three residency checks)
/// are real but modest, and for the cheapest policies the measured
/// ratios sit near 1.1 — a hair under breakeven keeps machine noise
/// from flaking the check while still catching the old 5× collapse.
const PARITY_GUARD: f64 = 0.95;
/// Floor for the L1-sized irregular cells (measured ~1.4–1.55).
const L1_FLOOR: f64 = 1.1;
/// Floor for the strided `seq` cells, where repeat-hit coalescing and
/// the resolution cache retire runs at counter speed (measured ≥1.49).
const SEQ_FLOOR: f64 = 1.2;

/// The batched/fused pairs whose paired ratios are written to the JSON,
/// and per pair the traces *enforced* by `--gate` with an optional
/// per-row floor (`None` = the gate-wide `--gate` floor). Every exported
/// cell is gated — the old engine's info-only miss-heavy and sequential
/// rows are now enforced. The irregular `graph500` cells — the regime
/// the engine is built for, where the paper's sweeps spend nearly all
/// their accesses — take the gate-wide floor (the local headline run
/// gates at 1.4; CI's quick run gates at 1.1 for shared-runner
/// headroom). Per-row floors sit ~15–25% under the full-fidelity
/// medians recorded in EXPERIMENTS.md §B-batch, so a failure means the
/// batched engine genuinely regressed, not that the machine was busy.
type GateRows = &'static [(&'static str, Option<f64>)];

const GATE_PAIRS: [(&str, &str, GateRows); 5] = [
    (
        "batched_full_lru",
        "full_lru_mono",
        &[
            ("zipf_hot", Some(BREAKEVEN)),
            ("zipf_l1", Some(L1_FLOOR)),
            ("graph500", None),
            ("zipf", Some(PARITY_GUARD)),
            ("seq", Some(SEQ_FLOOR)),
        ],
    ),
    // The 64-entry L1 configuration gates the same shape; zipf_hot and
    // zipf both overflow 64 entries, so they take the parity guard, and
    // its fits-TLB irregular cell zipf_l1 takes the L1 floor.
    (
        "batched_full_lru_l1",
        "full_lru_mono_l1",
        &[
            ("zipf_hot", Some(PARITY_GUARD)),
            ("zipf_l1", Some(L1_FLOOR)),
            ("graph500", None),
            ("zipf", Some(PARITY_GUARD)),
            ("seq", Some(SEQ_FLOOR)),
        ],
    ),
    (
        "batched_full_fifo",
        "full_fifo_mono",
        &[
            ("zipf_hot", Some(BREAKEVEN)),
            ("zipf_l1", Some(L1_FLOOR)),
            ("graph500", None),
            ("zipf", Some(BREAKEVEN)),
            ("seq", Some(SEQ_FLOOR)),
        ],
    ),
    (
        "batched_full_clock",
        "full_clock_mono",
        &[
            ("zipf_hot", Some(BREAKEVEN)),
            ("zipf_l1", Some(L1_FLOOR)),
            ("graph500", None),
            ("zipf", Some(PARITY_GUARD)),
            ("seq", Some(SEQ_FLOOR)),
        ],
    ),
    (
        "batched_full_sieve",
        "full_sieve_mono",
        &[
            ("zipf_hot", Some(BREAKEVEN)),
            ("zipf_l1", Some(L1_FLOOR)),
            ("graph500", None),
            ("zipf", Some(PARITY_GUARD)),
            ("seq", Some(SEQ_FLOOR)),
        ],
    ),
];

/// Profiled-on overhead rows: unprofiled batched engine as `fast`
/// against its profiler-attached twin as `slow`, so the recorded ratio
/// is the slowdown factor of profiling-on (≈ 1.0 means free). Never
/// gated — the zero-cost contract CI enforces is about profiling *off*;
/// these rows just document the on-cost trajectory.
const INFO_PAIRS: [(&str, &str); 2] = [
    ("batched_full_lru", "batched_full_lru_prof"),
    ("batched_full_lru_l1", "batched_full_lru_l1_prof"),
];

/// Builds the [`GATE_PAIRS`] × traces paired-ratio rows from measured
/// cells, plus the non-gated [`INFO_PAIRS`] overhead rows. The paired
/// cells sit near each other in the matrix and every rep round measures
/// both, so per-rep ratios compare like with like.
fn ratio_rows(cells: &[Cell], traces: &[(&'static str, Vec<u64>)]) -> Vec<RatioRow> {
    let mut rows = Vec::new();
    let find = |v: &str, tname: &&str| cells.iter().find(|c| c.variant == v && &c.trace == tname);
    for (fast_name, slow_name, gates) in GATE_PAIRS {
        for (tname, _) in traces {
            if let (Some(f), Some(s)) = (find(fast_name, tname), find(slow_name, tname)) {
                let spec = gates.iter().find(|(t, _)| t == tname);
                rows.push(RatioRow {
                    id: format!("{fast_name}_vs_{slow_name}/{tname}"),
                    fast: fast_name.to_string(),
                    slow: slow_name.to_string(),
                    trace: tname.to_string(),
                    ratio: gate::median_paired_ratio(&f.rep_times, &s.rep_times),
                    gated: spec.is_some(),
                    floor: spec.and_then(|&(_, floor)| floor),
                });
            }
        }
    }
    for (fast_name, slow_name) in INFO_PAIRS {
        for (tname, _) in traces {
            if let (Some(f), Some(s)) = (find(fast_name, tname), find(slow_name, tname)) {
                rows.push(RatioRow {
                    id: format!("{fast_name}_vs_{slow_name}/{tname}"),
                    fast: fast_name.to_string(),
                    slow: slow_name.to_string(),
                    trace: tname.to_string(),
                    ratio: gate::median_paired_ratio(&f.rep_times, &s.rep_times),
                    gated: false,
                    floor: None,
                });
            }
        }
    }
    rows
}

/// Prints every ratio row against `floor` and returns whether all gated
/// rows clear it. A set with no gated rows fails: a gate that found
/// nothing to check must not read as a pass.
fn run_gate(rows: &[RatioRow], floor: f64) -> bool {
    if !rows.iter().any(|r| r.gated) {
        println!("gate FAIL: no hotpath_paired_ratio rows to check");
        return false;
    }
    let failures = gate::gate_failures(rows, floor);
    for r in rows {
        let verdict = if failures.iter().any(|f| f.id == r.id) {
            "FAIL"
        } else if r.gated {
            "ok"
        } else {
            "info"
        };
        let row_floor = r.floor.unwrap_or(floor);
        println!(
            "  gate {:48} {:>6.2}x (floor {row_floor:.2}x) {verdict}",
            r.id, r.ratio
        );
    }
    failures.is_empty()
}

// ---------------------------------------------------------------------------
// JSON out / baseline compare
// ---------------------------------------------------------------------------

/// Writes the matrix in the workspace-wide `atp-metrics-v1` schema (one
/// metric object per line), so the bench artifact is readable by the same
/// consumers as `atp simulate --metrics`.
fn write_json(path: &str, quick: bool, reps: usize, cells: &[Cell], ratios: &[RatioRow]) {
    let mut reg = atp_obs::MetricsRegistry::new();
    reg.set_meta("bench", "hotpath");
    reg.set_meta("quick", if quick { "true" } else { "false" });
    reg.set_meta("reps", &reps.to_string());
    reg.set_meta("tlb_entries", &TLB_ENTRIES.to_string());
    for c in cells {
        let labels = [
            ("id", c.id.as_str()),
            ("variant", c.variant),
            ("trace", c.trace),
        ];
        reg.counter(
            "hotpath_accesses",
            "timed accesses per repetition",
            &labels,
            c.accesses as u64,
        );
        reg.counter(
            "hotpath_hits",
            "cumulative TLB hits (deterministic semantics checksum)",
            &labels,
            c.hits,
        );
        reg.gauge(
            "hotpath_accesses_per_sec",
            "median throughput over reps",
            &labels,
            c.accesses_per_sec,
        );
        reg.gauge(
            "hotpath_ns_per_access",
            "median latency over reps",
            &labels,
            c.ns_per_access,
        );
    }
    for r in ratios {
        let mut labels = vec![
            ("id", r.id.as_str()),
            ("fast", r.fast.as_str()),
            ("slow", r.slow.as_str()),
            ("trace", r.trace.as_str()),
            ("gated", if r.gated { "true" } else { "false" }),
        ];
        let floor_text = r.floor.map(|f| f.to_string());
        if let Some(f) = &floor_text {
            labels.push(("floor", f.as_str()));
        }
        reg.gauge(
            "hotpath_paired_ratio",
            "median of per-rep slow/fast time ratios (speedup of fast over slow)",
            &labels,
            r.ratio,
        );
    }
    std::fs::write(path, reg.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Reads `(id, accesses_per_sec)` pairs from a previous run's JSON.
/// Understands both the current `atp-metrics-v1` schema and the
/// pre-observability `atp-bench-hotpath-v1` format, so old committed
/// baselines keep working as `--baseline` inputs.
fn read_baseline(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let doc = atp_obs::json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
    let schema = doc.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    let mut out = Vec::new();
    match schema {
        "atp-metrics-v1" => {
            for m in doc
                .get("metrics")
                .and_then(|m| m.as_arr())
                .into_iter()
                .flatten()
            {
                if m.get("name").and_then(|n| n.as_str()) != Some("hotpath_accesses_per_sec") {
                    continue;
                }
                let id = m
                    .get("labels")
                    .and_then(|l| l.get("id"))
                    .and_then(|i| i.as_str());
                let value = m.get("value").and_then(|v| v.as_f64());
                if let (Some(id), Some(v)) = (id, value) {
                    out.push((id.to_string(), v));
                }
            }
        }
        "atp-bench-hotpath-v1" => {
            for r in doc
                .get("results")
                .and_then(|r| r.as_arr())
                .into_iter()
                .flatten()
            {
                let id = r.get("id").and_then(|i| i.as_str());
                let value = r.get("accesses_per_sec").and_then(|v| v.as_f64());
                if let (Some(id), Some(v)) = (id, value) {
                    out.push((id.to_string(), v));
                }
            }
        }
        other => panic!("unknown baseline schema {other:?} in {path}"),
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| args.get(i + 1).expect("--baseline needs a path").clone());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone())
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let gate_floor = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1)
            .expect("--gate needs a floor")
            .parse::<f64>()
            .expect("--gate floor must be a number")
    });
    let gate_file = args
        .iter()
        .position(|a| a == "--gate-file")
        .map(|i| args.get(i + 1).expect("--gate-file needs a path").clone());

    // Re-gate a stored artifact without measuring anything: the ratio
    // rows already in the JSON are the verdict's only input, so the gate
    // logic itself can be pinned by tests on synthetic files.
    if let Some(path) = gate_file {
        let floor = gate_floor.expect("--gate-file requires --gate <floor>");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let rows = gate::read_ratio_rows(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("gating {path} at {floor:.2}x:");
        if !run_gate(&rows, floor) {
            std::process::exit(1);
        }
        println!("gate OK");
        return;
    }

    let rounds = if quick { 2 } else { 8 };
    let traces = traces(TRACE_WINDOW);
    let variants = variants();

    println!(
        "hotpath: {} variants × {} traces, {} accesses ({TRACE_WINDOW}-access \
         window × {rounds} rounds), median of {REPS}",
        variants.len(),
        traces.len(),
        TRACE_WINDOW * rounds,
    );

    let cells = measure_matrix(&variants, &traces, REPS, rounds);
    for cell in &cells {
        println!(
            "  {:28} {:>12.0} acc/s  ({:6.2} ns/access, {} hits)",
            cell.id, cell.accesses_per_sec, cell.ns_per_access, cell.hits
        );
    }

    // Batched/fused paired ratios — the rows `--gate` checks and the
    // JSON records.
    let ratios = ratio_rows(&cells, &traces);
    for r in &ratios {
        println!("paired ratio {}: {:.2}x", r.id, r.ratio);
    }

    if let Some(bpath) = baseline {
        let base = read_baseline(&bpath);
        println!("\ncomparison vs {bpath}:");
        for c in &cells {
            if let Some((_, old)) = base.iter().find(|(id, _)| *id == c.id) {
                let ratio = c.accesses_per_sec / old;
                println!(
                    "  {:28} {:>12.0} vs {:>12.0} acc/s  ({:+.1}%)",
                    c.id,
                    c.accesses_per_sec,
                    old,
                    (ratio - 1.0) * 100.0
                );
            } else {
                println!("  {:28} (new cell, no baseline)", c.id);
            }
        }
    }

    write_json(&out_path, quick, REPS, &cells, &ratios);

    // Gate after writing: a failed gate still leaves the artifact on
    // disk for inspection.
    if let Some(floor) = gate_floor {
        println!("gating this run at {floor:.2}x:");
        if !run_gate(&ratios, floor) {
            std::process::exit(1);
        }
        println!("gate OK");
    }
}
