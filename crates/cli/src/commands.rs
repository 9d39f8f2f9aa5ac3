//! Subcommand implementations.

use crate::args::{parse_u64, ArgError, Args};
use atp_core::{IcebergAlloc, IcebergParams};
use atp_memmgmt::classic::{ClassicConfig, ClassicStages};
use atp_memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp_memmgmt::only::{PagingOnlyStages, VirtualOnlyStages};
use atp_memmgmt::sparse::{SparseConfig, SparseStages};
use atp_memmgmt::thp::{ThpConfig, ThpStages};
use atp_memmgmt::{MemoryManager, NoopObserver, Pipeline, Recorder, SimObserver, StageCounters};
use atp_obs::{
    run_registry, EventLog, ExportFormat, PhaseBoundary, PhaseConfig, PhaseDetector, Profiler,
    RunObserver, Shared, SyncRecorder,
};
use atp_replacement::PolicyKind;
use atp_sim::{run_multicore_observed, sweep_with_progress, LatencyModel, MulticoreConfig};
use atp_trace::{read_trace, write_trace, ReuseProfile, TraceStats};
use atp_types::{Asid, CostModel, Costs, TenantOp, VirtPage};
use atp_workloads::{
    Bimodal, Graph500Config, Graph500Trace, Gups, ParetoWalk, Sequential, Stencil2d, UniformRandom,
    Zipfian,
};
use std::io::Write;
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
atp — Paging and the Address-Translation Problem (SPAA 2021) simulator

USAGE:
  atp simulate  --workload W --manager M [options]   run one simulation
  atp sweep     --workload W [options]               Figure-1 h-sweep
  atp tenants   [--tenants LIST --skew LIST …]       multi-tenant sweep
  atp multicore --workload W --cores N [options]     shootdown extension
  atp trace     record|stats|mrc …                   trace tools
  atp bench     compare OLD.json NEW.json             bench trajectory
  atp calibrate [--device nvme|disk] [--virtualized] derive ε
  atp help                                           this text

WORKLOADS (--workload):
  bimodal | walk | graph500 | zipf | uniform | seq | gups | stencil
MANAGERS (--manager):
  classic | decoupled | sparse | thp | x | y
  (sparse: decoupled Z with sparse TLB values; --h sets the coverage in pages/entry)
WORKLOAD OPTIONS (each only with the workload that reads it):
  --zipf-s F      zipf: Zipf exponent           [1.0]
  --graph-scale N graph500: log2 of vertices    [15]
  --edge-factor N graph500: edges per vertex    [16]

COMMON OPTIONS (sizes accept k/m/g suffixes and 2^n):
  --phys N        physical pages            [2^16]
  --virt N        virtual pages             [4×phys]
  --tlb N         TLB entries               [1536]
  --h N           huge-page size (classic/thp) [64]
  --accesses N    measured accesses         [1m]
  --warmup N      warmup accesses           [accesses]
  --epsilon F     TLB-miss cost ε           [0.01]
  --policy P      lru|fifo|clock|sieve|marking [lru]
  --seed N        RNG seed                  [42]

SIMULATE:
  --batch N       driver chunk size in pages (cost-invariant;
                  batched engines pipeline each chunk)        [4096]

OBSERVABILITY (simulate; --metrics/--format also on sweep and multicore):
  --observe            print per-stage counters + reuse/latency histograms
  --metrics FILE       write run metrics (--format json|csv|prom) [json]
  --trace-events FILE  write Chrome trace-event JSON (load in Perfetto)
  --events-cap N       event ring capacity                        [64k]
  --window N           emit per-window time-series CSV every N accesses
  --window-out FILE    write the window CSV here instead of stdout
  --profile FILE       write the logical hot-path profile (atp_prof_*
                       metrics in --format) collected by the batched run
  --phases             online phase detection over per-window miss rates
                       (requires --window; adds a phase column to the
                       CSV and phase_boundary events to --trace-events;
                       on tenants: per-tenant detection + boundary rows)
  --phase-warm N       windows averaged before a baseline is trusted [2]
  --phase-floor PPM    minimum absolute miss-rate deviation        [20k]
  --phase-rel PCT      minimum relative deviation, % of baseline    [50]

SWEEP / MULTICORE:
  --threads N     sweep worker threads (0 = all CPUs)             [0]
  --cores N       multicore: cores (one trace and one thread per
                  core), at most 256                              [4]

TENANTS (ASID-tagged translation over one shared physical pool):
  --tenants LIST  comma-separated tenant counts to sweep    [1,16,256]
  --skew LIST     comma-separated tenant-activity Zipf exponents [1.1]
  --page-skew F   per-tenant page-stream Zipf exponent         [1.01]
  --quantum N     accesses per scheduling slice                  [256]
  --churn F       P(retire tenant at quantum end), 0 disables    [0.0]
  --vspan N       private virtual pages per tenant          [virt]
  --manager M     tagged (shared AsidTlb) | arena (interleaved classic)
  --batch N       driver chunk size in accesses (cost-invariant;
                  same-tenant runs retire through wide probes)  [4096]
  --per-tenant-cap N  per-tenant metric rows kept (top by accesses) [16]
  (--metrics/--format export one aggregate row per sweep point plus
   per-tenant rows labelled asid=…)

TRACE TOOLS:
  atp trace record --workload W --out FILE --accesses N [--phys N …]
  atp trace stats FILE
  atp trace mrc FILE [--capacities 1k,4k,16k,…]

BENCH TRAJECTORY:
  atp bench compare OLD.json NEW.json [--gate-drift F]
    Per-cell paired-ratio drift between two hotpath metrics artifacts
    (BENCH_hotpath.json schema). With --gate-drift, exits non-zero if
    any gated cell's ratio dropped by more than the fraction F.
";

/// Options read by [`common`] — every subcommand that builds a
/// simulation accepts these.
const COMMON_OPTS: &[&str] = &[
    "phys", "virt", "tlb", "h", "accesses", "warmup", "epsilon", "policy", "seed",
];

/// The options that only one workload reads, each with that workload.
const WORKLOAD_ONLY_OPTS: [(&str, &str); 3] = [
    ("zipf-s", "zipf"),
    ("graph-scale", "graph500"),
    ("edge-factor", "graph500"),
];

/// `check_known` against [`COMMON_OPTS`] plus the subcommand's own
/// options; these subcommands take no positional arguments. Unless
/// `extra` names them, `--workload` and the [`WORKLOAD_ONLY_OPTS`] are
/// errors that say who reads them.
fn check_opts(args: &Args, extra: &[&str]) -> Result<(), ArgError> {
    let given = |opt: &str| args.get(opt).is_some() && !extra.contains(&opt);
    if given("workload") {
        return Err(ArgError(
            "--workload is read only by simulate, sweep, multicore and trace record".into(),
        ));
    }
    if let Some((opt, reader)) = WORKLOAD_ONLY_OPTS.into_iter().find(|&(opt, _)| given(opt)) {
        return Err(ArgError(format!(
            "--{opt} is read only by --workload {reader}, and this subcommand builds no workload"
        )));
    }
    let mut known: Vec<&str> = COMMON_OPTS.to_vec();
    known.extend_from_slice(extra);
    args.check_known(&known)?;
    args.reject_positionals()
}

/// [`check_opts`] for a subcommand that builds a [`workload`]: it also
/// accepts `--workload` and the [`WORKLOAD_ONLY_OPTS`] of the workload
/// chosen, and names the workload that reads any other.
fn check_workload_opts(args: &Args, extra: &[&str]) -> Result<(), ArgError> {
    let mut known = vec!["workload"];
    known.extend(WORKLOAD_ONLY_OPTS.map(|(opt, _)| opt));
    known.extend_from_slice(extra);
    check_opts(args, &known)?;
    let chosen = args.get_or("workload", "bimodal");
    match WORKLOAD_ONLY_OPTS
        .into_iter()
        .find(|&(opt, reader)| reader != chosen && args.get(opt).is_some())
    {
        Some((opt, reader)) => Err(ArgError(format!(
            "--{opt} is read only by --workload {reader}, not by --workload {chosen}"
        ))),
        None => Ok(()),
    }
}

/// Writes an export artifact, wrapping IO errors with the path.
fn write_text(path: &str, contents: &str) -> Result<(), ArgError> {
    std::fs::write(path, contents).map_err(|e| ArgError(format!("write {path}: {e}")))
}

/// Parses `--format` into an [`ExportFormat`] (default JSON).
fn export_format(args: &Args) -> Result<ExportFormat, ArgError> {
    let s = args.get_or("format", "json");
    ExportFormat::parse(s)
        .ok_or_else(|| ArgError(format!("--format: expected json|csv|prom, got {s:?}")))
}

/// Parses the `--phases` family into a [`PhaseConfig`], or `None` when
/// phase detection was not requested. Thresholds without `--phases`, or
/// `--phases` without a window, are hard errors — a silently inert flag
/// is a diagnosis trap.
fn phase_config(args: &Args, window: u64) -> Result<Option<PhaseConfig>, ArgError> {
    let tuning = ["phase-warm", "phase-floor", "phase-rel"];
    if !args.flag("phases") {
        if let Some(name) = tuning.iter().find(|n| args.get(n).is_some()) {
            return Err(ArgError(format!("--{name} requires --phases")));
        }
        return Ok(None);
    }
    if window == 0 {
        return Err(ArgError("--phases requires --window N".into()));
    }
    let d = PhaseConfig::default();
    let warm = args.u64_or("phase-warm", u64::from(d.warm_windows))?;
    if warm == 0 || warm > u64::from(u32::MAX) {
        return Err(ArgError(format!("--phase-warm: {warm} out of range")));
    }
    Ok(Some(PhaseConfig {
        warm_windows: warm as u32,
        abs_floor_ppm: args.u64_or("phase-floor", d.abs_floor_ppm)?,
        rel_pct: args.u64_or("phase-rel", d.rel_pct)?,
    }))
}

fn policy_of(name: &str) -> Result<PolicyKind, ArgError> {
    PolicyKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
            ArgError(format!(
                "unknown policy {name:?} (expected {})",
                known.join("|")
            ))
        })
}

/// A Zipf exponent option: positive and finite, as `Zipf::new` requires.
fn zipf_exponent(args: &Args, name: &str, default: f64) -> Result<f64, ArgError> {
    let s = args.f64_or(name, default)?;
    check_zipf_exponent(name, s)
}

fn check_zipf_exponent(name: &str, s: f64) -> Result<f64, ArgError> {
    if s > 0.0 && s.is_finite() {
        Ok(s)
    } else {
        Err(ArgError(format!(
            "--{name} must be a positive Zipf exponent, got {s}"
        )))
    }
}

/// Builds a workload iterator from args.
fn workload(
    args: &Args,
    virt: u64,
    seed: u64,
) -> Result<Box<dyn Iterator<Item = VirtPage>>, ArgError> {
    Ok(match args.get_or("workload", "bimodal") {
        "bimodal" => Box::new(Bimodal::scaled(seed, virt)),
        "walk" => Box::new(ParetoWalk::new(seed, virt, 0.01)),
        "zipf" => Box::new(Zipfian::new(
            seed,
            virt,
            zipf_exponent(args, "zipf-s", 1.0)?,
        )),
        "uniform" => Box::new(UniformRandom::new(seed, virt)),
        "seq" => Box::new(Sequential::new(virt)),
        "gups" => {
            let table = virt * 3 / 4;
            if table == 0 {
                return Err(ArgError(format!(
                    "--workload gups needs --virt of at least 2 (its table is 3/4 of it), got {virt}"
                )));
            }
            Box::new(Gups::new(seed, table, (virt / 64).max(1)))
        }
        "stencil" => {
            // Square grid sized so both arrays fill the virtual space.
            let cells = virt * (4096 / 8) / 2;
            let side = ((cells as f64).sqrt() as u64).max(8);
            Box::new(Stencil2d::new(side, side, 32))
        }
        "graph500" => {
            let scale = args.u64_or("graph-scale", 15)? as u32;
            let g = Graph500Trace::generate(&Graph500Config {
                scale,
                edge_factor: args.u64_or("edge-factor", 16)?,
                seed,
                max_accesses: usize::MAX >> 1,
            });
            let v: Vec<VirtPage> = g.iter().collect();
            Box::new(v.into_iter())
        }
        other => return Err(ArgError(format!("unknown workload {other:?}"))),
    })
}

#[derive(Clone)]
struct Common {
    phys: u64,
    virt: u64,
    tlb: u64,
    h: u64,
    accesses: u64,
    warmup: u64,
    model: CostModel,
    policy: PolicyKind,
    seed: u64,
}

/// Parses and validates the [`COMMON_OPTS`]. The size checks here are
/// the managers' constructor contracts (nonzero capacities, a
/// power-of-two huge page no larger than memory), so a bad size exits 2
/// with a message instead of reaching a library panic.
fn common(args: &Args) -> Result<Common, ArgError> {
    let phys = args.u64_or("phys", 1 << 16)?;
    let virt = args.u64_or("virt", phys * 4)?;
    let accesses = args.u64_or("accesses", 1 << 20)?;
    let eps = args.f64_or("epsilon", 0.01)?;
    if !(eps > 0.0 && eps < 1.0) {
        return Err(ArgError(format!("--epsilon must be in (0,1), got {eps}")));
    }
    let tlb = args.u64_or("tlb", 1536)?;
    let h = args.u64_or("h", 64)?;
    if phys == 0 {
        return Err(ArgError("--phys must be at least 1".into()));
    }
    if phys >= u32::MAX as u64 {
        return Err(ArgError(format!(
            "--phys {phys} exceeds the 32-bit slot ids of a replacement list"
        )));
    }
    if virt == 0 {
        return Err(ArgError("--virt must be at least 1".into()));
    }
    if tlb == 0 {
        return Err(ArgError("--tlb must be at least 1".into()));
    }
    if tlb >= u32::MAX as u64 {
        return Err(ArgError(format!(
            "--tlb {tlb} exceeds the 32-bit slot ids of a replacement list"
        )));
    }
    if !h.is_power_of_two() {
        return Err(ArgError(format!("--h must be a power of two, got {h}")));
    }
    if h > phys {
        return Err(ArgError(format!(
            "--h {h} exceeds --phys {phys}: a huge page must fit in memory"
        )));
    }
    Ok(Common {
        phys,
        virt,
        tlb,
        h,
        accesses,
        warmup: args.u64_or("warmup", accesses)?,
        model: CostModel::new(eps),
        policy: policy_of(args.get_or("policy", "lru"))?,
        seed: args.u64_or("seed", 42)?,
    })
}

/// Builds a manager as a pipeline over `obs`. The observer is generic so
/// the default build pays nothing ([`NoopObserver`]) while `--observe` and
/// the export flags attach a `Shared<RunObserver>` without a separate
/// construction path.
fn build_observed<O: SimObserver + 'static>(
    name: &str,
    c: &Common,
    obs: O,
) -> Result<Box<dyn MemoryManager>, ArgError> {
    Ok(match name {
        "classic" => Box::new(Pipeline::with_observer(
            ClassicStages::new(ClassicConfig {
                huge_pages: c.h,
                phys_pages: c.phys,
                tlb_entries: c.tlb,
                tlb_policy: c.policy,
                ram_policy: c.policy,
                seed: c.seed,
            }),
            obs,
        )),
        "decoupled" => {
            let params = IcebergParams::derive(c.phys);
            Box::new(Pipeline::with_observer(
                DecoupledStages::new(
                    IcebergAlloc::new(&params, c.seed),
                    DecoupledConfig {
                        tlb_value_bits: 64,
                        tlb_entries: c.tlb,
                        tlb_policy: c.policy,
                        resident_pages: params.max_resident,
                        ram_policy: c.policy,
                        seed: c.seed,
                    },
                ),
                obs,
            ))
        }
        "sparse" => {
            let params = IcebergParams::derive(c.phys);
            Box::new(Pipeline::with_observer(
                SparseStages::new(
                    IcebergAlloc::new(&params, c.seed),
                    SparseConfig {
                        tlb_value_bits: 64,
                        coverage: c.h.max(2).next_power_of_two(),
                        tlb_entries: c.tlb,
                        tlb_policy: c.policy,
                        resident_pages: params.max_resident,
                        ram_policy: c.policy,
                        seed: c.seed,
                    },
                ),
                obs,
            ))
        }
        "thp" => Box::new(Pipeline::with_observer(
            ThpStages::new(ThpConfig {
                huge_pages: c.h,
                phys_pages: c.phys - c.phys % c.h,
                tlb_entries: c.tlb,
                policy: c.policy,
                seed: c.seed,
            }),
            obs,
        )),
        "x" => Box::new(Pipeline::with_observer(
            VirtualOnlyStages::new(c.h, c.tlb, c.policy, c.seed),
            obs,
        )),
        "y" => Box::new(Pipeline::with_observer(
            PagingOnlyStages::new(c.phys, c.policy, c.seed),
            obs,
        )),
        other => return Err(ArgError(format!("unknown manager {other:?}"))),
    })
}

fn build_manager(name: &str, c: &Common) -> Result<Box<dyn MemoryManager>, ArgError> {
    build_observed(name, c, NoopObserver)
}

/// `atp simulate`.
pub fn simulate(raw: &[String]) -> Result<(), ArgError> {
    let args = Args::parse(raw, &["observe", "phases"])?;
    check_workload_opts(
        &args,
        &[
            "manager",
            "batch",
            "observe",
            "metrics",
            "trace-events",
            "events-cap",
            "window",
            "window-out",
            "format",
            "profile",
            "phases",
            "phase-warm",
            "phase-floor",
            "phase-rel",
        ],
    )?;
    let c = common(&args)?;
    let name = args.get_or("manager", "classic");
    let wname = args.get_or("workload", "bimodal");
    let format = export_format(&args)?;
    let batch = args.u64_or("batch", atp_sim::DEFAULT_BATCH as u64)? as usize;
    if batch == 0 {
        return Err(ArgError("--batch must be positive".to_string()));
    }
    let window = args.u64_or("window", 0)?;
    let phases = phase_config(&args, window)?;
    let events_cap = args.u64_or("events-cap", EventLog::DEFAULT_CAPACITY as u64)? as usize;
    if events_cap == 0 {
        return Err(ArgError("--events-cap must be at least 1".into()));
    }

    // Any export flag attaches the full observer stack; the pipeline stays
    // observer-free (NoopObserver, statically eliminated) otherwise.
    let wants_observer = args.flag("observe")
        || args.get("metrics").is_some()
        || args.get("trace-events").is_some()
        || window > 0;
    let observer = wants_observer.then(|| {
        let mut obs = RunObserver::new(Recorder::new());
        if args.get("trace-events").is_some() {
            obs = obs.with_events(events_cap);
        }
        if window > 0 {
            obs = obs.with_window(window, c.model.epsilon);
        }
        if let Some(cfg) = phases {
            obs = obs.with_phases(cfg);
        }
        Shared::new(obs)
    });
    let mut mgr = match &observer {
        Some(obs) => build_observed(name, &c, obs.clone())?,
        None => build_manager(name, &c)?,
    };
    let trace = workload(&args, c.virt, c.seed)?;
    // The profiler rides the whole run (warmup included — cold-start
    // behaviour is exactly what a profile is for) through the `ProfSink`
    // seam; without `--profile` the engines run their NoProf path.
    let mut prof = args.get("profile").map(|_| Profiler::new());
    // Timing lives here, at the CLI boundary: the sim crate is
    // logical-clock-only so its outputs stay bit-reproducible.
    let wall_start = std::time::Instant::now();
    let stats = match prof.as_mut() {
        Some(p) => {
            atp_sim::run_batched_profiled(mgr.as_mut(), trace, c.warmup, c.accesses, batch, p)
        }
        None => atp_sim::run_batched(mgr.as_mut(), trace, c.warmup, c.accesses, batch),
    };
    let wall = wall_start.elapsed();
    let costs = stats.costs;
    outln!("manager:        {}", stats.name);
    outln!("accesses:       {}", costs.accesses);
    outln!("ios:            {}", costs.ios);
    outln!(
        "tlb misses:     {} ({:.4} per access)",
        costs.tlb_misses,
        costs.tlb_miss_rate()
    );
    outln!("decode misses:  {}", costs.decode_misses);
    outln!("paging failures:{}", costs.paging_failures);
    outln!(
        "total cost:     {:.2}  (ε = {}; C_IO {:.1} + C_TLB {:.2} + C_D {:.2})",
        costs.total(c.model),
        c.model.epsilon,
        costs.io_cost(),
        costs.tlb_cost(c.model),
        costs.decode_cost(c.model)
    );
    outln!("wall time:      {wall:.2?}");
    let served = stats.warmup_costs.accesses + costs.accesses;
    let secs = wall.as_secs_f64();
    let rate = if secs > 0.0 {
        served as f64 / secs
    } else {
        0.0
    };
    outln!("rate:           {rate:.0} acc/s (warmup + measured)");
    if let Some(obs) = &observer {
        // The observer sees warmup as well as measurement — useful for the
        // cold-start transient the Costs report excludes.
        if args.flag("observe") {
            outln!();
            outln!("{}", obs.with(|o| o.recorder.summary()));
        }
        obs.with(|o| -> Result<(), ArgError> {
            if let Some(path) = args.get("metrics") {
                let reg = run_registry(name, wname, &costs, c.model, Some(&o.recorder));
                write_text(path, &reg.render(format))?;
                eprintln!("metrics: {path}");
            }
            if let (Some(path), Some(log)) = (args.get("trace-events"), o.events.as_ref()) {
                write_text(path, &log.to_chrome_trace())?;
                eprintln!(
                    "trace events: {path} ({} recorded, {} dropped)",
                    log.recorded(),
                    log.dropped()
                );
            }
            if let Some(w) = &o.windowed {
                if let Some(d) = w.detector() {
                    eprintln!(
                        "phases: {} boundary(ies), final phase {}",
                        d.boundaries().len(),
                        d.phase()
                    );
                }
                match args.get("window-out") {
                    Some(path) => {
                        write_text(path, &w.to_csv())?;
                        eprintln!("window csv: {path} ({} windows)", w.all_rows().len());
                    }
                    None => out!("\n{}", w.to_csv()),
                }
            }
            Ok(())
        })?;
    }
    if let (Some(path), Some(p)) = (args.get("profile"), prof.as_ref()) {
        let mut reg = atp_obs::MetricsRegistry::new();
        reg.set_meta("command", "simulate");
        reg.set_meta("manager", name);
        reg.set_meta("workload", wname);
        p.export_into(&mut reg);
        write_text(path, &reg.render(format))?;
        // Pipeline managers report stage ops; the resolution-cache
        // breakdown stays zero unless the batched TLB engine itself runs
        // under the profiler (the hotpath bench's `_prof` variants).
        eprintln!(
            "profile: {path} ({} stage ops, {} resolutions)",
            atp_types::StageOp::ALL
                .iter()
                .map(|&op| p.stage_ops(op))
                .sum::<u64>(),
            p.resolutions()
        );
    }
    Ok(())
}

/// One finished sweep point, collected from a worker thread.
struct SweepRow {
    /// `h` for a classic configuration, `None` for the decoupled Z row.
    h: Option<u64>,
    costs: Costs,
    stages: StageCounters,
}

/// `atp sweep`.
///
/// The eleven-ish configurations are independent, so they fan out over
/// [`sweep_with_progress`] workers (`--threads`, 0 = all CPUs) with a
/// `done/total` ticker on stderr; rows print in input order afterwards, so
/// stdout is byte-identical to the old sequential driver. Each worker
/// attaches a constant-size `Recorder::without_reuse_tracking()` — sweeps
/// only need stage counters, not the per-page reuse map.
pub fn sweep_cmd(raw: &[String]) -> Result<(), ArgError> {
    let args = Args::parse(raw, &[])?;
    check_workload_opts(&args, &["threads", "metrics", "format"])?;
    let c = common(&args)?;
    let threads = args.u64_or("threads", 0)? as usize;
    let format = export_format(&args)?;
    let trace: Vec<VirtPage> = workload(&args, c.virt, c.seed)?
        .take((c.warmup + c.accesses) as usize)
        .collect();

    let mut configs: Vec<Option<u64>> = (0..=10u32)
        .map(|shift| 1u64 << shift)
        .filter(|&h| h <= c.phys)
        .map(Some)
        .collect();
    configs.push(None); // the decoupled Z baseline rides along
    let total = configs.len();

    let results: Vec<Result<SweepRow, ArgError>> = sweep_with_progress(
        &configs,
        threads,
        |&cfg| {
            let rec = Shared::new(Recorder::without_reuse_tracking());
            let mut mgr = match cfg {
                Some(h) => {
                    let mut over_h = c.clone();
                    over_h.h = h;
                    build_observed("classic", &over_h, rec.clone())?
                }
                None => build_observed("decoupled", &c, rec.clone())?,
            };
            let s = atp_sim::run(mgr.as_mut(), trace.iter().copied(), c.warmup, c.accesses);
            Ok(SweepRow {
                h: cfg,
                costs: s.costs,
                stages: rec.with(|r| r.counters()),
            })
        },
        |done, _| {
            eprint!("\rsweep {done}/{total}");
            let _ = std::io::stderr().flush();
        },
    );
    eprintln!();

    let rows: Vec<SweepRow> = results.into_iter().collect::<Result<_, _>>()?;
    outln!("h\tios\ttlb_misses\ttotal(ε={})", c.model.epsilon);
    for row in &rows {
        let label = match row.h {
            Some(h) => h.to_string(),
            None => "Z".to_string(),
        };
        outln!(
            "{label}\t{}\t{}\t{:.1}",
            row.costs.ios,
            row.costs.tlb_misses,
            row.costs.total(c.model)
        );
    }

    if let Some(path) = args.get("metrics") {
        let wname = args.get_or("workload", "bimodal");
        let mut reg = atp_obs::MetricsRegistry::new();
        reg.set_meta("command", "sweep");
        reg.set_meta("workload", wname);
        reg.set_meta("epsilon", &format!("{}", c.model.epsilon));
        for row in &rows {
            let (mname, hval) = match row.h {
                Some(h) => ("classic", h.to_string()),
                None => ("decoupled", "-".to_string()),
            };
            let labels = [
                ("manager", mname),
                ("workload", wname),
                ("h", hval.as_str()),
            ];
            atp_obs::costs_into(&mut reg, &labels, &row.costs, c.model);
            reg.counter(
                "atp_stage_evictions",
                "residency evictions",
                &labels,
                row.stages.evictions,
            );
            reg.counter(
                "atp_stage_evicted_pages",
                "base pages dropped by evictions",
                &labels,
                row.stages.evicted_pages,
            );
        }
        write_text(path, &reg.render(format))?;
        eprintln!("metrics: {path}");
    }
    Ok(())
}

/// Parses a comma-separated list with [`parse_u64`] element syntax.
fn u64_list(args: &Args, name: &str, default: &[u64]) -> Result<Vec<u64>, ArgError> {
    match args.get(name) {
        None => Ok(default.to_vec()),
        Some(spec) => spec
            .split(',')
            .map(|s| parse_u64(s).map_err(|_| ArgError(format!("--{name}: bad integer {s:?}"))))
            .collect(),
    }
}

/// Parses a comma-separated f64 list.
fn f64_list(args: &Args, name: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
    match args.get(name) {
        None => Ok(default.to_vec()),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{name}: bad float {s:?}")))
            })
            .collect(),
    }
}

/// One finished tenants sweep point.
struct TenantRow {
    tenants: u64,
    skew: f64,
    stats: atp_sim::TenantStats,
    /// Phase boundaries detected per tenant (`--phases`), in detection
    /// order.
    boundaries: Vec<(Asid, PhaseBoundary)>,
}

/// Runs one tenants sweep point, optionally with per-tenant phase
/// detection: each tenant gets its own [`PhaseDetector`] fed that
/// tenant's miss rate over every global window it was active in, so a
/// tenant whose working set shifts fires its own boundary without the
/// other tenants' noise diluting the signal.
fn run_tenant_point<M: atp_memmgmt::TenantManager>(
    mm: &mut M,
    ops: impl IntoIterator<Item = TenantOp>,
    warmup: u64,
    measure: u64,
    batch: usize,
    phases: Option<(u64, PhaseConfig)>,
    boundaries: &mut Vec<(Asid, PhaseBoundary)>,
) -> atp_sim::TenantStats {
    match phases {
        None => atp_sim::run_tenants_batched(mm, ops, warmup, measure, batch),
        Some((window, config)) => {
            let mut detectors: std::collections::BTreeMap<Asid, PhaseDetector> =
                std::collections::BTreeMap::new();
            atp_sim::run_tenants_batched_windowed(
                mm,
                ops,
                warmup,
                measure,
                batch,
                window,
                |w, deltas| {
                    for &(asid, d) in deltas {
                        if d.accesses == 0 {
                            continue;
                        }
                        let ppm = d.tlb_misses * 1_000_000 / d.accesses;
                        let det = detectors
                            .entry(asid)
                            .or_insert_with(|| PhaseDetector::new(config));
                        if let Some(b) = det.on_window(w, w * window, ppm) {
                            boundaries.push((asid, b));
                        }
                    }
                },
            )
        }
    }
}

/// `atp tenants` — the multi-tenant sweep: N tenants × activity skew over
/// one shared physical pool, driven by [`TenantMix`] context-switch
/// traces. `tagged` runs the dedicated ASID-tagged manager (shared
/// `AsidTlb`, switches flush nothing); `arena` interleaves tenants into
/// one classic manager's address space as the untagged baseline.
pub fn tenants_cmd(raw: &[String]) -> Result<(), ArgError> {
    let args = Args::parse(raw, &["phases"])?;
    check_opts(
        &args,
        &[
            "manager",
            "tenants",
            "skew",
            "page-skew",
            "quantum",
            "churn",
            "vspan",
            "per-tenant-cap",
            "batch",
            "metrics",
            "format",
            "window",
            "phases",
            "phase-warm",
            "phase-floor",
            "phase-rel",
        ],
    )?;
    let c = common(&args)?;
    let window = args.u64_or("window", 0)?;
    let phases = phase_config(&args, window)?.map(|cfg| (window, cfg));
    if window > 0 && phases.is_none() {
        return Err(ArgError("--window on tenants requires --phases".into()));
    }
    let batch = args.u64_or("batch", atp_sim::DEFAULT_BATCH as u64)? as usize;
    if batch == 0 {
        return Err(ArgError("--batch must be positive".into()));
    }
    let tenant_counts = u64_list(&args, "tenants", &[1, 16, 256])?;
    let skews = f64_list(&args, "skew", &[1.1])?;
    for &skew in &skews {
        check_zipf_exponent("skew", skew)?;
    }
    let page_skew = zipf_exponent(&args, "page-skew", 1.01)?;
    let quantum = args.u64_or("quantum", 256)?;
    let churn = args.f64_or("churn", 0.0)?;
    if !(0.0..=1.0).contains(&churn) {
        return Err(ArgError(format!("--churn must be in [0,1], got {churn}")));
    }
    let vspan = args.u64_or("vspan", c.virt)?;
    if vspan == 0 || quantum == 0 {
        return Err(ArgError("--vspan and --quantum must be nonzero".into()));
    }
    for &n in &tenant_counts {
        if n == 0 || n > u32::MAX as u64 {
            return Err(ArgError(format!("--tenants: count {n} out of range")));
        }
    }
    let mname = args.get_or("manager", "tagged");
    let per_tenant_cap = args.u64_or("per-tenant-cap", 16)? as usize;
    let format = export_format(&args)?;

    let mut rows = Vec::new();
    outln!("tenants\tskew\taccesses\tios\ttlb_misses\tswitches\tretired\tshootdowns\tseen");
    for &n in &tenant_counts {
        for &skew in &skews {
            let mix =
                atp_workloads::TenantMix::new(c.seed, n, vspan, skew, page_skew, quantum, churn);
            // Control records don't consume quota; 3× covers the worst case
            // (quantum 1 with churn: switch + access + retire per slice).
            let ops = mix.take((c.warmup + c.accesses) as usize * 3);
            let mut boundaries = Vec::new();
            let stats = match mname {
                "tagged" => {
                    let mut mm = atp_memmgmt::TenantMm::new(atp_memmgmt::TenantMmConfig {
                        huge_pages: c.h,
                        phys_pages: c.phys,
                        tlb_entries: c.tlb,
                        tlb_policy: c.policy,
                        ram_policy: c.policy,
                        seed: c.seed,
                    });
                    run_tenant_point(
                        &mut mm,
                        ops,
                        c.warmup,
                        c.accesses,
                        batch,
                        phases,
                        &mut boundaries,
                    )
                }
                "arena" => {
                    let mut arena = atp_memmgmt::TenantArena::new(
                        Pipeline::from_stages(ClassicStages::new(ClassicConfig {
                            huge_pages: c.h,
                            phys_pages: c.phys,
                            tlb_entries: c.tlb,
                            tlb_policy: c.policy,
                            ram_policy: c.policy,
                            seed: c.seed,
                        })),
                        vspan,
                    );
                    run_tenant_point(
                        &mut arena,
                        ops,
                        c.warmup,
                        c.accesses,
                        batch,
                        phases,
                        &mut boundaries,
                    )
                }
                other => {
                    return Err(ArgError(format!(
                        "unknown tenants manager {other:?} (tagged|arena)"
                    )))
                }
            };
            outln!(
                "{n}\t{skew}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                stats.costs.accesses,
                stats.costs.ios,
                stats.costs.tlb_misses,
                stats.switches,
                stats.retirements,
                stats.shootdowns,
                stats.tenants_seen()
            );
            for (asid, b) in &boundaries {
                outln!(
                    "# phase: tenant {} window {} {} -> {} ppm",
                    asid.id(),
                    b.window,
                    b.from_ppm,
                    b.to_ppm
                );
            }
            rows.push(TenantRow {
                tenants: n,
                skew,
                stats,
                boundaries,
            });
        }
    }

    if let Some(path) = args.get("metrics") {
        let mut reg = atp_obs::MetricsRegistry::new();
        reg.set_meta("command", "tenants");
        reg.set_meta("manager", mname);
        reg.set_meta("quantum", &quantum.to_string());
        reg.set_meta("churn", &format!("{churn}"));
        reg.set_meta("page_skew", &format!("{page_skew}"));
        if let Some((window, _)) = phases {
            reg.set_meta("phase_window", &window.to_string());
        }
        for row in &rows {
            let n_s = row.tenants.to_string();
            let skew_s = format!("{}", row.skew);
            let labels = [
                ("manager", mname),
                ("tenants", n_s.as_str()),
                ("skew", skew_s.as_str()),
            ];
            atp_obs::costs_into(&mut reg, &labels, &row.stats.costs, c.model);
            reg.counter(
                "atp_context_switches",
                "measured context switches",
                &labels,
                row.stats.switches,
            );
            reg.counter(
                "atp_tenant_retirements",
                "tenants retired during measurement",
                &labels,
                row.stats.retirements,
            );
            reg.counter(
                "atp_tlb_shootdowns",
                "TLB entries shot down by switches and retirements",
                &labels,
                row.stats.shootdowns,
            );
            if phases.is_some() {
                reg.counter(
                    "atp_phase_boundaries",
                    "per-tenant miss-rate phase boundaries detected",
                    &labels,
                    row.boundaries.len() as u64,
                );
                let mut per_asid: std::collections::BTreeMap<u32, u64> =
                    std::collections::BTreeMap::new();
                for (asid, _) in &row.boundaries {
                    *per_asid.entry(asid.id()).or_default() += 1;
                }
                for (id, count) in per_asid {
                    let asid_s = id.to_string();
                    let tlabels = [
                        ("manager", mname),
                        ("tenants", n_s.as_str()),
                        ("skew", skew_s.as_str()),
                        ("asid", asid_s.as_str()),
                    ];
                    reg.counter(
                        "atp_phase_boundaries",
                        "per-tenant miss-rate phase boundaries detected",
                        &tlabels,
                        count,
                    );
                }
            }
            // Per-tenant breakdown, top `per_tenant_cap` by accesses so a
            // million-tenant sweep cannot explode the artifact. The
            // truncation is recorded, never silent.
            let mut per = row.stats.per_tenant.clone();
            per.sort_by_key(|(a, costs)| (core::cmp::Reverse(costs.accesses), a.0));
            if per.len() > per_tenant_cap {
                reg.counter(
                    "atp_tenants_truncated",
                    "tenants omitted from the per-tenant breakdown",
                    &labels,
                    (per.len() - per_tenant_cap) as u64,
                );
                per.truncate(per_tenant_cap);
            }
            for (asid, costs) in &per {
                let asid_s = asid.id().to_string();
                let tlabels = [
                    ("manager", mname),
                    ("tenants", n_s.as_str()),
                    ("skew", skew_s.as_str()),
                    ("asid", asid_s.as_str()),
                ];
                atp_obs::costs_into(&mut reg, &tlabels, costs, c.model);
            }
        }
        write_text(path, &reg.render(format))?;
        eprintln!("metrics: {path}");
    }
    Ok(())
}

/// Most cores `atp multicore` simulates: above any shipping socket. Each
/// core costs a trace of `--accesses` pages and one OS thread, so the
/// bound is checked before either is made.
const MAX_CORES: u64 = 256;

/// `atp multicore` — the Section 1 shootdown extension from the shell:
/// `--cores` private TLBs over one shared page cache, each core replaying
/// the workload under its own seed. One [`SyncRecorder`] is cloned into
/// every core, so the printed stage counters are machine-wide.
pub fn multicore_cmd(raw: &[String]) -> Result<(), ArgError> {
    let args = Args::parse(raw, &[])?;
    check_workload_opts(&args, &["cores", "metrics", "format"])?;
    let c = common(&args)?;
    let cores = args.u64_or("cores", 4)?;
    if !(1..=MAX_CORES).contains(&cores) {
        return Err(ArgError(format!(
            "--cores must be in 1..={MAX_CORES}, got {cores}"
        )));
    }
    let cores = cores as usize;
    let format = export_format(&args)?;
    let wname = args.get_or("workload", "bimodal");
    let cfg = MulticoreConfig {
        cores,
        huge_pages: c.h,
        phys_pages: c.phys,
        tlb_entries: c.tlb,
        policy: c.policy,
        seed: c.seed,
    };
    let mut traces = Vec::with_capacity(cores);
    for core in 0..cores {
        traces.push(
            workload(&args, c.virt, c.seed + core as u64)?
                .take(c.accesses as usize)
                .collect::<Vec<VirtPage>>(),
        );
    }

    let shared = SyncRecorder::without_reuse_tracking();
    let (result, _) = run_multicore_observed(&cfg, &traces, |_| shared.clone());

    outln!("core\taccesses\ttlb_misses\tios");
    for (core, stats) in result.per_core.iter().enumerate() {
        outln!(
            "{core}\t{}\t{}\t{}",
            stats.costs.accesses,
            stats.costs.tlb_misses,
            stats.costs.ios
        );
    }
    let total = result.total_costs();
    outln!(
        "total\t{}\t{}\t{}",
        total.accesses,
        total.tlb_misses,
        total.ios
    );
    outln!("shootdown events:        {}", result.shootdown_events);
    outln!(
        "shootdown invalidations: {}",
        result.shootdown_invalidations
    );

    if let Some(path) = args.get("metrics") {
        let snapshot = shared.snapshot();
        let mut reg = run_registry("multicore", wname, &total, c.model, Some(&snapshot));
        reg.set_meta("cores", &cores.to_string());
        let labels = [("manager", "multicore"), ("workload", wname)];
        reg.counter(
            "atp_shootdown_events",
            "RAM evictions that triggered shootdown broadcasts",
            &labels,
            result.shootdown_events,
        );
        reg.counter(
            "atp_shootdown_invalidations",
            "TLB entries invalidated across all cores",
            &labels,
            result.shootdown_invalidations,
        );
        write_text(path, &reg.render(format))?;
        eprintln!("metrics: {path}");
    }
    Ok(())
}

/// `atp trace record|stats|mrc`.
pub fn trace_cmd(raw: &[String]) -> Result<(), ArgError> {
    let sub = raw
        .first()
        .ok_or_else(|| ArgError("trace expects record|stats|mrc".into()))?
        .clone();
    let rest = &raw[1..];
    match sub.as_str() {
        "record" => {
            let args = Args::parse(rest, &[])?;
            check_workload_opts(&args, &["out"])?;
            let c = common(&args)?;
            let out = args
                .get("out")
                .ok_or_else(|| ArgError("trace record requires --out FILE".into()))?;
            let pages: Vec<VirtPage> = workload(&args, c.virt, c.seed)?
                .take(c.accesses as usize)
                .collect();
            write_trace(Path::new(out), &pages)
                .map_err(|e| ArgError(format!("write failed: {e}")))?;
            outln!("wrote {} accesses to {out}", pages.len());
            Ok(())
        }
        "stats" => {
            let args = Args::parse(rest, &[])?;
            args.check_known(&[])?;
            let file = args
                .positional(0)
                .ok_or_else(|| ArgError("trace stats requires a FILE".into()))?;
            let pages =
                read_trace(Path::new(file)).map_err(|e| ArgError(format!("read failed: {e}")))?;
            let s = TraceStats::compute(&pages);
            outln!("accesses:      {}", s.length);
            outln!("unique pages:  {}", s.unique_pages);
            outln!("page range:    {}..={}", s.min_page, s.max_page);
            outln!("same-page rate:{:.4}", s.same_page_rate);
            outln!("adjacent rate: {:.4}", s.adjacent_rate);
            outln!("mean reuse:    {:.2}", s.mean_reuse);
            Ok(())
        }
        "mrc" => {
            let args = Args::parse(rest, &[])?;
            args.check_known(&["capacities"])?;
            let file = args
                .positional(0)
                .ok_or_else(|| ArgError("trace mrc requires a FILE".into()))?;
            let pages =
                read_trace(Path::new(file)).map_err(|e| ArgError(format!("read failed: {e}")))?;
            let caps: Vec<usize> = match args.get("capacities") {
                Some(spec) => spec
                    .split(',')
                    .map(|s| parse_u64(s).map(|v| v as usize))
                    .collect::<Result<_, _>>()
                    .map_err(|_| ArgError("bad --capacities list".into()))?,
                None => (4..=20).map(|s| 1usize << s).collect(),
            };
            let max_cap = caps.iter().copied().max().unwrap_or(1024);
            let prof = ReuseProfile::compute(&pages, max_cap);
            outln!("capacity\tlru_misses\tmiss_ratio");
            for (c, ratio) in prof.curve(&caps) {
                outln!("{c}\t{}\t{ratio:.4}", prof.lru_misses(c));
            }
            outln!("# cold misses: {}", prof.cold_misses);
            Ok(())
        }
        other => Err(ArgError(format!("unknown trace subcommand {other:?}"))),
    }
}

/// `atp bench compare` — trajectory deltas between two stored hotpath
/// metrics artifacts (see [`atp_bench::compare`]).
pub fn bench_cmd(raw: &[String]) -> Result<(), ArgError> {
    let sub = raw
        .first()
        .ok_or_else(|| ArgError("bench expects a subcommand (compare)".into()))?
        .clone();
    let rest = &raw[1..];
    match sub.as_str() {
        "compare" => {
            let args = Args::parse(rest, &[])?;
            args.check_known(&["gate-drift"])?;
            if args.positional_len() != 2 {
                return Err(ArgError(
                    "bench compare takes exactly two files: OLD.json NEW.json".into(),
                ));
            }
            let drift = match args.get("gate-drift") {
                None => None,
                Some(spec) => {
                    let max_drop: f64 = spec
                        .parse()
                        .map_err(|_| ArgError(format!("--gate-drift: bad fraction {spec:?}")))?;
                    if !max_drop.is_finite() || max_drop < 0.0 {
                        return Err(ArgError(format!(
                            "--gate-drift must be a non-negative fraction, got {spec}"
                        )));
                    }
                    Some(max_drop)
                }
            };
            let read = |p: &str| -> Result<Vec<atp_bench::gate::RatioRow>, ArgError> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| ArgError(format!("read {p}: {e}")))?;
                atp_bench::gate::read_ratio_rows(&text).map_err(|e| ArgError(format!("{p}: {e}")))
            };
            let old = read(args.positional(0).unwrap_or_default())?;
            let new = read(args.positional(1).unwrap_or_default())?;
            let cmp = atp_bench::compare::compare(&old, &new);
            out!("{}", atp_bench::compare::render(&cmp));
            if let Some(max_drop) = drift {
                let bad = atp_bench::compare::drift_failures(&cmp, max_drop);
                if bad.is_empty() {
                    let gated = cmp.cells.iter().filter(|c| c.gated).count();
                    outln!(
                        "drift gate: {gated} gated cell(s) within {:.1}% of baseline",
                        max_drop * 100.0
                    );
                } else {
                    for cell in &bad {
                        eprintln!(
                            "drift gate FAIL: {} {:.4} -> {:.4}",
                            cell.id, cell.old_ratio, cell.new_ratio
                        );
                    }
                    return Err(ArgError(format!(
                        "{} gated cell(s) dropped more than {:.1}% below baseline",
                        bad.len(),
                        max_drop * 100.0
                    )));
                }
            }
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown bench subcommand {other:?} (compare)"
        ))),
    }
}

/// `atp calibrate`.
pub fn calibrate(raw: &[String]) -> Result<(), ArgError> {
    let args = Args::parse(raw, &["virtualized"])?;
    args.check_known(&["device", "virtualized", "walk-ns", "io-ns"])?;
    args.reject_positionals()?;
    let device = args.get_or("device", "nvme");
    let mut m = match device {
        "nvme" => LatencyModel::nvme_native(),
        "disk" => LatencyModel::disk_native(),
        other => return Err(ArgError(format!("unknown device {other:?} (nvme|disk)"))),
    };
    if args.flag("virtualized") {
        m.walk_touches = 24.0;
    }
    m.walk_touch_ns = args.f64_or("walk-ns", m.walk_touch_ns)?;
    m.io_ns = args.f64_or("io-ns", m.io_ns)?;
    for (name, ns) in [("walk-ns", m.walk_touch_ns), ("io-ns", m.io_ns)] {
        if !(ns.is_finite() && ns > 0.0) {
            return Err(ArgError(format!(
                "--{name} must be a positive, finite latency, got {ns}"
            )));
        }
    }
    let epsilon = m.epsilon();
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(ArgError(format!(
            "derived ε = {epsilon} is outside the cost model's (0, 1): \
             a TLB miss must cost less than an IO"
        )));
    }
    outln!(
        "walk: {} touches × {} ns; io: {} ns",
        m.walk_touches,
        m.walk_touch_ns,
        m.io_ns
    );
    outln!("ε = {epsilon:.6}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn simulate_runs_every_manager() {
        for mgr in ["classic", "decoupled", "sparse", "thp", "x", "y"] {
            simulate(&argv(&[
                "--manager",
                mgr,
                "--workload",
                "zipf",
                "--phys",
                "2^12",
                "--accesses",
                "10k",
                "--warmup",
                "10k",
                "--h",
                "8",
            ]))
            .unwrap_or_else(|e| panic!("{mgr}: {e}"));
        }
    }

    #[test]
    fn simulate_runs_every_workload() {
        for w in [
            "bimodal", "walk", "zipf", "uniform", "seq", "gups", "stencil",
        ] {
            simulate(&argv(&[
                "--manager",
                "classic",
                "--workload",
                w,
                "--phys",
                "2^12",
                "--accesses",
                "5k",
                "--warmup",
                "0",
                "--h",
                "4",
            ]))
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        }
    }

    #[test]
    fn simulate_observe_flag() {
        for mgr in ["classic", "decoupled", "sparse", "thp", "x", "y"] {
            simulate(&argv(&[
                "--manager",
                mgr,
                "--workload",
                "zipf",
                "--phys",
                "2^12",
                "--accesses",
                "10k",
                "--warmup",
                "0",
                "--h",
                "8",
                "--observe",
            ]))
            .unwrap_or_else(|e| panic!("{mgr}: {e}"));
        }
    }

    #[test]
    fn simulate_rejects_bad_input() {
        assert!(simulate(&argv(&["--manager", "nope"])).is_err());
        assert!(simulate(&argv(&["--workload", "nope"])).is_err());
        assert!(simulate(&argv(&["--epsilon", "2.0"])).is_err());
        assert!(simulate(&argv(&["--policy", "nope"])).is_err());
    }

    #[test]
    fn simulate_rejects_unknown_and_duplicate_options() {
        // A typo'd option name must not be silently ignored.
        let err = simulate(&argv(&["--warmpup", "0"])).unwrap_err();
        assert!(err.0.contains("--warmpup"), "{err}");
        // Same for a repeated one.
        let err = simulate(&argv(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.0.contains("more than once"), "{err}");
        // Bad export format names the accepted set.
        let err = simulate(&argv(&["--format", "xml"])).unwrap_err();
        assert!(err.0.contains("json|csv|prom"), "{err}");
        // Every subcommand gets the unknown-option check.
        assert!(sweep_cmd(&argv(&["--warmpup", "0"])).is_err());
        assert!(multicore_cmd(&argv(&["--coers", "2"])).is_err());
        assert!(calibrate(&argv(&["--devcie", "nvme"])).is_err());
        assert!(trace_cmd(&argv(&["mrc", "f", "--capacties", "1k"])).is_err());
    }

    #[test]
    fn simulate_batch_is_cost_invariant() {
        // --batch only changes driver chunking; every exported metric
        // except the driver-owned batch-boundary count must be
        // byte-identical across batch sizes.
        let dir = std::env::temp_dir().join("atp_cli_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let export = |batch: &str| {
            let path = dir.join(format!("m_{batch}.json"));
            simulate(&argv(&[
                "--manager",
                "classic",
                "--workload",
                "zipf",
                "--phys",
                "2^12",
                "--accesses",
                "10k",
                "--warmup",
                "1k",
                "--h",
                "8",
                "--batch",
                batch,
                "--metrics",
                path.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("--batch {batch}: {e}"));
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            // atp_stage_batches counts driver chunks, so it varies with
            // --batch by design; everything else must not.
            assert!(text.contains("atp_stage_batches"), "batches row missing");
            text.lines()
                .filter(|l| !l.contains("atp_stage_batches"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let golden = export("4096");
        for batch in ["1", "13", "2^16"] {
            assert_eq!(export(batch), golden, "--batch {batch} changed the metrics");
        }
        // Zero is rejected, not silently clamped.
        let err = simulate(&argv(&["--batch", "0"])).unwrap_err();
        assert!(err.0.contains("--batch"), "{err}");
    }

    #[test]
    fn simulate_exports_observability_artifacts() {
        let dir = std::env::temp_dir().join("atp_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.json");
        let trace = dir.join("t.json");
        let window = dir.join("w.csv");
        simulate(&argv(&[
            "--manager",
            "classic",
            "--workload",
            "zipf",
            "--phys",
            "2^12",
            "--accesses",
            "10k",
            "--warmup",
            "0",
            "--h",
            "8",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace-events",
            trace.to_str().unwrap(),
            "--window",
            "1k",
            "--window-out",
            window.to_str().unwrap(),
        ]))
        .unwrap();
        // Metrics and trace events are valid JSON in the expected schemas.
        let m = std::fs::read_to_string(&metrics).unwrap();
        let doc = atp_obs::json::parse(&m).expect("metrics must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("atp-metrics-v1")
        );
        let t = std::fs::read_to_string(&trace).unwrap();
        let doc = atp_obs::json::parse(&t).expect("trace events must be valid JSON");
        assert!(doc.get("traceEvents").and_then(|e| e.as_arr()).is_some());
        // The window CSV has a header plus ten 1k windows.
        let w = std::fs::read_to_string(&window).unwrap();
        assert_eq!(w.lines().count(), 11);
        assert!(w.starts_with("window,start,accesses,"));
        for f in [&metrics, &trace, &window] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn simulate_csv_and_prom_formats() {
        let dir = std::env::temp_dir().join("atp_cli_obs_fmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (fmt, needle) in [
            ("csv", "atp_ios,counter,"),
            ("prom", "# TYPE atp_ios counter"),
        ] {
            let path = dir.join(format!("m.{fmt}"));
            simulate(&argv(&[
                "--workload",
                "uniform",
                "--phys",
                "2^10",
                "--accesses",
                "2k",
                "--warmup",
                "0",
                "--h",
                "4",
                "--metrics",
                path.to_str().unwrap(),
                "--format",
                fmt,
            ]))
            .unwrap();
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.contains(needle), "{fmt}: missing {needle:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn multicore_runs_and_exports() {
        let dir = std::env::temp_dir().join("atp_cli_mc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("mc.json");
        multicore_cmd(&argv(&[
            "--workload",
            "uniform",
            "--cores",
            "2",
            "--phys",
            "2^10",
            "--tlb",
            "32",
            "--accesses",
            "5k",
            "--h",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let m = std::fs::read_to_string(&metrics).unwrap();
        let doc = atp_obs::json::parse(&m).unwrap();
        assert_eq!(
            doc.get("meta")
                .unwrap()
                .get("cores")
                .and_then(|c| c.as_str()),
            Some("2")
        );
        assert!(m.contains("atp_shootdown_events"));
        std::fs::remove_file(&metrics).ok();
        assert!(multicore_cmd(&argv(&["--cores", "0"])).is_err());
    }

    #[test]
    fn sweep_runs_small() {
        sweep_cmd(&argv(&[
            "--workload",
            "uniform",
            "--phys",
            "2^10",
            "--accesses",
            "5k",
            "--warmup",
            "5k",
            "--tlb",
            "64",
        ]))
        .unwrap();
    }

    #[test]
    fn sweep_parallel_with_metrics() {
        let dir = std::env::temp_dir().join("atp_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("sweep.csv");
        sweep_cmd(&argv(&[
            "--workload",
            "zipf",
            "--phys",
            "2^10",
            "--accesses",
            "5k",
            "--warmup",
            "0",
            "--tlb",
            "64",
            "--threads",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
            "--format",
            "csv",
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&metrics).unwrap();
        // One atp_cost_total row per h in 1..=1024 plus the Z row.
        let rows = body
            .lines()
            .filter(|l| l.starts_with("atp_cost_total,"))
            .count();
        assert_eq!(rows, 12);
        assert!(body.contains("h=1024"));
        assert!(body.contains("manager=decoupled"));
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn trace_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("atp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.atpt");
        let file_s = file.to_str().unwrap();
        trace_cmd(&argv(&[
            "record",
            "--workload",
            "zipf",
            "--out",
            file_s,
            "--accesses",
            "5k",
            "--phys",
            "2^12",
        ]))
        .unwrap();
        trace_cmd(&argv(&["stats", file_s])).unwrap();
        trace_cmd(&argv(&["mrc", file_s, "--capacities", "16,256,1k"])).unwrap();
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn trace_requires_subcommand_and_file() {
        assert!(trace_cmd(&[]).is_err());
        assert!(trace_cmd(&argv(&["stats"])).is_err());
        assert!(trace_cmd(&argv(&["record", "--workload", "zipf"])).is_err());
        assert!(trace_cmd(&argv(&["bogus"])).is_err());
    }

    #[test]
    fn calibrate_devices() {
        calibrate(&argv(&[])).unwrap();
        calibrate(&argv(&["--device", "disk"])).unwrap();
        calibrate(&argv(&["--device", "nvme", "--virtualized"])).unwrap();
        assert!(calibrate(&argv(&["--device", "floppy"])).is_err());
    }

    #[test]
    fn run_dispatches() {
        assert_eq!(crate::run(&argv(&["help"])), 0);
        assert_eq!(crate::run(&argv(&["bogus"])), 2);
        assert_eq!(crate::run(&[]), 2);
    }

    const SUBCOMMANDS: [&str; 7] = [
        "simulate",
        "sweep",
        "tenants",
        "multicore",
        "trace",
        "bench",
        "calibrate",
    ];

    #[test]
    fn long_help_after_a_subcommand_exits_0() {
        for cmd in SUBCOMMANDS {
            assert_eq!(crate::run(&argv(&[cmd, "--help"])), 0, "{cmd} --help");
        }
    }

    #[test]
    fn short_help_after_a_subcommand_exits_0() {
        for cmd in SUBCOMMANDS {
            assert_eq!(crate::run(&argv(&[cmd, "-h"])), 0, "{cmd} -h");
        }
    }

    #[test]
    fn help_anywhere_after_a_subcommand_runs_nothing() {
        // `--phys 0` would exit 2 if anything were parsed or run.
        assert_eq!(simulate_classic_exit(&["--phys", "0", "--help"]), 0);
        assert_eq!(simulate_classic_exit(&["--phys", "0", "-h"]), 0);
        assert_eq!(crate::run(&argv(&["trace", "record", "-h"])), 0);
    }

    #[test]
    fn multicore_cores_above_the_ceiling_exit_2() {
        // Checked before any trace is built, so no thread starts.
        assert_eq!(crate::run(&argv(&["multicore", "--cores", "2^20"])), 2);
    }

    #[test]
    fn calibrate_rejects_non_positive_or_non_finite_latencies() {
        for bad in [
            ["--walk-ns", "-5"],
            ["--walk-ns", "0"],
            ["--io-ns", "0"],
            ["--io-ns", "nan"],
            ["--io-ns", "inf"],
        ] {
            assert_eq!(
                crate::run(&argv(&["calibrate", bad[0], bad[1]])),
                2,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn calibrate_rejects_epsilon_outside_the_unit_interval() {
        // 4 touches × 100 ns against a 400 ns IO: ε = 1.
        let a = argv(&["--walk-ns", "100", "--io-ns", "400"]);
        let err = calibrate(&a).unwrap_err();
        assert!(err.0.contains("(0, 1)"), "{}", err.0);
        assert_eq!(crate::run(&[vec!["calibrate".to_string()], a].concat()), 2);
    }

    #[test]
    fn stray_positional_exits_2() {
        for a in [
            &["simulate", "--accesses", "1k", "stray"][..],
            &["sweep", "--accesses", "1k", "stray"],
            &["tenants", "--accesses", "1k", "stray"],
            &["multicore", "--accesses", "1k", "stray"],
            &["calibrate", "stray"],
        ] {
            assert_eq!(crate::run(&argv(a)), 2, "{a:?}");
        }
    }

    /// Exit code of `atp simulate --manager classic` plus `extra`.
    fn simulate_classic_exit(extra: &[&str]) -> i32 {
        let mut a = vec!["simulate", "--manager", "classic", "--accesses", "1k"];
        a.extend_from_slice(extra);
        crate::run(&argv(&a))
    }

    #[test]
    fn zero_phys_exits_2() {
        assert_eq!(simulate_classic_exit(&["--phys", "0"]), 2);
    }

    #[test]
    fn zero_tlb_exits_2() {
        assert_eq!(simulate_classic_exit(&["--tlb", "0"]), 2);
    }

    #[test]
    fn zero_huge_page_exits_2() {
        assert_eq!(simulate_classic_exit(&["--h", "0"]), 2);
    }

    #[test]
    fn non_power_of_two_huge_page_exits_2() {
        assert_eq!(simulate_classic_exit(&["--h", "3"]), 2);
    }

    #[test]
    fn huge_page_larger_than_memory_exits_2() {
        assert_eq!(simulate_classic_exit(&["--h", "128", "--phys", "64"]), 2);
    }

    #[test]
    fn zero_zipf_exponent_exits_2() {
        assert_eq!(
            simulate_classic_exit(&["--workload", "zipf", "--zipf-s", "0"]),
            2
        );
    }

    #[test]
    fn zero_tenant_page_skew_exits_2() {
        let a = ["tenants", "--page-skew", "0", "--accesses", "1k"];
        assert_eq!(crate::run(&argv(&a)), 2);
        let a = ["tenants", "--skew", "1.1,0", "--accesses", "1k"];
        assert_eq!(crate::run(&argv(&a)), 2);
    }

    #[test]
    fn zero_virtual_span_exits_2() {
        assert_eq!(
            simulate_classic_exit(&["--workload", "uniform", "--virt", "0"]),
            2
        );
    }

    #[test]
    fn zero_event_capacity_exits_2() {
        let events = std::env::temp_dir().join("atp-zero-events-cap.json");
        let events = events.to_str().expect("utf-8 temp path");
        assert_eq!(
            simulate_classic_exit(&["--events-cap", "0", "--trace-events", events]),
            2
        );
    }

    #[test]
    fn tlb_beyond_32_bit_slot_ids_exits_2() {
        assert_eq!(simulate_classic_exit(&["--tlb", "1099511627776"]), 2);
    }

    #[test]
    fn phys_beyond_32_bit_slot_ids_exits_2() {
        // Rejected before anything is allocated, for every manager (x
        // keeps no RAM but still shares the option parser).
        for mgr in ["classic", "decoupled", "sparse", "thp", "x", "y"] {
            let a = ["simulate", "--manager", mgr, "--phys", "1099511627776"];
            assert_eq!(crate::run(&argv(&a)), 2, "{mgr}");
        }
    }

    #[test]
    fn gups_without_table_pages_exits_2() {
        assert_eq!(
            simulate_classic_exit(&["--workload", "gups", "--virt", "1"]),
            2
        );
    }

    #[test]
    fn oversized_batch_is_one_chunk() {
        assert_eq!(
            simulate_classic_exit(&["--batch", "4611686018427387904"]),
            0
        );
    }

    #[test]
    fn unknown_policy_exits_2_naming_the_kinds() {
        for name in ["lru", "fifo", "clock", "sieve", "marking"] {
            assert_eq!(simulate_classic_exit(&["--policy", name]), 0, "{name}");
        }
        for name in ["lfu", "mru", "slru", "2q", "random", "lru-2"] {
            assert_eq!(simulate_classic_exit(&["--policy", name]), 2, "{name}");
        }
        let err = simulate(&argv(&["--policy", "lfu"])).unwrap_err();
        assert!(err.0.contains("lru|fifo|clock|sieve|marking"), "{err}");
    }

    #[test]
    fn bad_sizes_exit_2_for_every_manager_and_subcommand() {
        for mgr in ["classic", "decoupled", "sparse", "thp", "x", "y"] {
            for bad in [["--phys", "0"], ["--tlb", "0"]] {
                let mut a = vec!["simulate", "--manager", mgr, "--accesses", "1k"];
                a.extend_from_slice(&bad);
                assert_eq!(crate::run(&argv(&a)), 2, "{mgr} {bad:?}");
            }
        }
        for cmd in ["sweep", "tenants", "multicore"] {
            let a = [cmd, "--phys", "64", "--h", "128", "--accesses", "1k"];
            assert_eq!(crate::run(&argv(&a)), 2, "{cmd}");
        }
    }

    #[test]
    fn tenants_runs_both_managers() {
        for mgr in ["tagged", "arena"] {
            tenants_cmd(&argv(&[
                "--manager",
                mgr,
                "--tenants",
                "1,8",
                "--skew",
                "1.1,1.3",
                "--phys",
                "2^10",
                "--tlb",
                "64",
                "--vspan",
                "2^10",
                "--quantum",
                "32",
                "--accesses",
                "4k",
                "--warmup",
                "1k",
                "--h",
                "4",
            ]))
            .unwrap_or_else(|e| panic!("{mgr}: {e}"));
        }
        assert!(tenants_cmd(&argv(&["--manager", "nope"])).is_err());
    }

    #[test]
    fn tenants_exports_per_tenant_metrics() {
        let dir = std::env::temp_dir().join("atp_cli_tenants_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("tenants.json");
        tenants_cmd(&argv(&[
            "--tenants",
            "4",
            "--skew",
            "1.2",
            "--churn",
            "0.1",
            "--phys",
            "2^10",
            "--tlb",
            "64",
            "--vspan",
            "2^9",
            "--quantum",
            "32",
            "--accesses",
            "4k",
            "--warmup",
            "0",
            "--h",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let m = std::fs::read_to_string(&metrics).unwrap();
        let doc = atp_obs::json::parse(&m).expect("metrics must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("atp-metrics-v1")
        );
        // Aggregate rows labelled by sweep point, per-tenant rows by ASID.
        assert!(
            m.contains("\"tenants\": \"4\""),
            "sweep-point label missing"
        );
        assert!(m.contains("\"asid\": \"0\""), "per-tenant label missing");
        assert!(m.contains("atp_context_switches"));
        assert!(m.contains("atp_tlb_shootdowns"));
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn tenants_rejects_unknown_duplicate_and_bad_options() {
        // PR-4 convention: typos and repeats are hard errors everywhere.
        let err = tenants_cmd(&argv(&["--tenatns", "4"])).unwrap_err();
        assert!(err.0.contains("--tenatns"), "{err}");
        let err = tenants_cmd(&argv(&["--skew", "1.1", "--skew", "1.2"])).unwrap_err();
        assert!(err.0.contains("more than once"), "{err}");
        assert!(tenants_cmd(&argv(&["--tenants", "0"])).is_err());
        assert!(tenants_cmd(&argv(&["--tenants", "1,bogus"])).is_err());
        assert!(tenants_cmd(&argv(&["--skew", "1.1,x"])).is_err());
        assert!(tenants_cmd(&argv(&["--churn", "1.5"])).is_err());
        assert!(tenants_cmd(&argv(&["--tenants", "2^33"])).is_err());
    }

    #[test]
    fn tenants_deterministic_output_rows() {
        // Two identical invocations must produce identical metric files —
        // the sweep is a pure function of its arguments.
        let dir = std::env::temp_dir().join("atp_cli_tenants_det_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for path in [&a, &b] {
            tenants_cmd(&argv(&[
                "--tenants",
                "16",
                "--skew",
                "1.1",
                "--churn",
                "0.05",
                "--phys",
                "2^10",
                "--tlb",
                "64",
                "--vspan",
                "2^9",
                "--quantum",
                "16",
                "--accesses",
                "8k",
                "--warmup",
                "1k",
                "--h",
                "4",
                "--metrics",
                path.to_str().unwrap(),
                "--format",
                "csv",
            ]))
            .unwrap();
        }
        let ba = std::fs::read_to_string(&a).unwrap();
        let bb = std::fs::read_to_string(&b).unwrap();
        assert_eq!(ba, bb, "tenants sweep must be deterministic");
        for f in [&a, &b] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn tenants_batch_is_cost_invariant() {
        // --batch only changes driver chunking; every exported tenants
        // metric must be byte-identical across batch sizes for both
        // managers (the batched same-tenant fast path is pinned to the
        // per-access path).
        let dir = std::env::temp_dir().join("atp_cli_tenants_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        for mgr in ["tagged", "arena"] {
            let export = |batch: &str| {
                let path = dir.join(format!("m_{mgr}_{batch}.json"));
                tenants_cmd(&argv(&[
                    "--manager",
                    mgr,
                    "--tenants",
                    "4",
                    "--skew",
                    "1.2",
                    "--churn",
                    "0.05",
                    "--phys",
                    "2^10",
                    "--tlb",
                    "64",
                    "--vspan",
                    "2^9",
                    "--quantum",
                    "32",
                    "--accesses",
                    "6k",
                    "--warmup",
                    "1k",
                    "--h",
                    "4",
                    "--batch",
                    batch,
                    "--metrics",
                    path.to_str().unwrap(),
                ]))
                .unwrap_or_else(|e| panic!("{mgr} --batch {batch}: {e}"));
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::remove_file(&path).ok();
                text
            };
            let golden = export("4096");
            for batch in ["1", "13", "2^16"] {
                assert_eq!(
                    export(batch),
                    golden,
                    "{mgr} --batch {batch} changed the metrics"
                );
            }
        }
        // Zero is rejected, not silently clamped.
        let err = tenants_cmd(&argv(&["--batch", "0"])).unwrap_err();
        assert!(err.0.contains("--batch"), "{err}");
    }

    #[test]
    fn simulate_profile_and_phases_artifacts() {
        let dir = std::env::temp_dir().join("atp_cli_prof_phase_test");
        std::fs::create_dir_all(&dir).unwrap();
        let profile = dir.join("p.json");
        let window = dir.join("w.csv");
        let events = dir.join("e.json");
        simulate(&argv(&[
            "--manager",
            "classic",
            "--workload",
            "zipf",
            "--phys",
            "2^12",
            "--accesses",
            "10k",
            "--warmup",
            "0",
            "--h",
            "8",
            "--window",
            "1k",
            "--phases",
            "--trace-events",
            events.to_str().unwrap(),
            "--window-out",
            window.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ]))
        .unwrap();
        // The profile is a valid atp-metrics-v1 document with the full
        // stable atp_prof_* schema and real pipeline activity.
        let p = std::fs::read_to_string(&profile).unwrap();
        let doc = atp_obs::json::parse(&p).expect("profile must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("atp-metrics-v1")
        );
        assert!(p.contains("atp_prof_stage_ops"));
        assert!(p.contains("atp_prof_lane_occupancy"));
        // The window CSV grew the phase column; the event JSON stays valid.
        let w = std::fs::read_to_string(&window).unwrap();
        assert!(w.lines().next().unwrap().ends_with(",phase"), "{w}");
        let e = std::fs::read_to_string(&events).unwrap();
        atp_obs::json::parse(&e).expect("trace events must be valid JSON");
        for f in [&profile, &window, &events] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn simulate_profile_is_deterministic() {
        let dir = std::env::temp_dir().join("atp_cli_prof_det_test");
        std::fs::create_dir_all(&dir).unwrap();
        let export = |name: &str| {
            let path = dir.join(name);
            simulate(&argv(&[
                "--workload",
                "uniform",
                "--phys",
                "2^10",
                "--accesses",
                "5k",
                "--warmup",
                "1k",
                "--h",
                "4",
                "--profile",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            text
        };
        assert_eq!(export("a.json"), export("b.json"));
    }

    #[test]
    fn simulate_phase_flags_are_validated() {
        // --phases without --window, and tuning knobs without --phases,
        // are hard errors, not silently inert flags.
        let err = simulate(&argv(&["--phases"])).unwrap_err();
        assert!(err.0.contains("--window"), "{err}");
        let err = simulate(&argv(&["--phase-warm", "3"])).unwrap_err();
        assert!(err.0.contains("--phases"), "{err}");
        let err =
            simulate(&argv(&["--window", "1k", "--phases", "--phase-warm", "0"])).unwrap_err();
        assert!(err.0.contains("phase-warm"), "{err}");
    }

    #[test]
    fn tenants_phases_detects_and_exports() {
        let dir = std::env::temp_dir().join("atp_cli_tenants_phase_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("tp.json");
        tenants_cmd(&argv(&[
            "--tenants",
            "4",
            "--skew",
            "1.2",
            "--phys",
            "2^10",
            "--tlb",
            "64",
            "--vspan",
            "2^9",
            "--quantum",
            "32",
            "--accesses",
            "8k",
            "--warmup",
            "0",
            "--h",
            "4",
            "--phases",
            "--window",
            "512",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let m = std::fs::read_to_string(&metrics).unwrap();
        atp_obs::json::parse(&m).expect("metrics must be valid JSON");
        assert!(
            m.contains("atp_phase_boundaries"),
            "phase rows exported: {m}"
        );
        assert!(m.contains("\"phase_window\": \"512\""));
        std::fs::remove_file(&metrics).ok();
        // --window on tenants without --phases is rejected.
        let err = tenants_cmd(&argv(&["--window", "512"])).unwrap_err();
        assert!(err.0.contains("--phases"), "{err}");
    }

    #[test]
    fn bench_compare_reports_and_gates() {
        // Synthesize two hotpath artifacts through the same registry
        // schema the bench writes, then drive the trajectory gate both
        // ways.
        let dir = std::env::temp_dir().join("atp_cli_bench_cmp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, ratio: f64| {
            let mut reg = atp_obs::MetricsRegistry::new();
            reg.gauge(
                "hotpath_paired_ratio",
                "per-rep paired throughput ratio",
                &[
                    ("id", "a_vs_b/zipf"),
                    ("fast", "a"),
                    ("slow", "b"),
                    ("trace", "zipf"),
                    ("gated", "true"),
                ],
                ratio,
            );
            reg.gauge(
                "hotpath_paired_ratio",
                "per-rep paired throughput ratio",
                &[
                    ("id", "info/zipf"),
                    ("fast", "a"),
                    ("slow", "c"),
                    ("trace", "zipf"),
                    ("gated", "false"),
                ],
                ratio / 2.0,
            );
            let path = dir.join(name);
            std::fs::write(&path, reg.to_json()).unwrap();
            path
        };
        let old = write("old.json", 2.0);
        let ok = write("ok.json", 1.9);
        let bad = write("bad.json", 1.0);
        let argv2 = |new: &std::path::Path, drift: &str| {
            argv(&[
                "compare",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--gate-drift",
                drift,
            ])
        };
        // Within the allowance: passes (the non-gated cell's larger drop
        // is informational).
        bench_cmd(&argv2(&ok, "0.1")).unwrap();
        // Beyond it: fails and names the drop.
        let err = bench_cmd(&argv2(&bad, "0.1")).unwrap_err();
        assert!(err.0.contains("gated cell"), "{err}");
        // Without --gate-drift the comparison always succeeds.
        bench_cmd(&argv(&[
            "compare",
            old.to_str().unwrap(),
            bad.to_str().unwrap(),
        ]))
        .unwrap();
        for f in [&old, &ok, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn bench_compare_rejects_bad_input() {
        assert!(bench_cmd(&[]).is_err());
        assert!(bench_cmd(&argv(&["bogus"])).is_err());
        assert!(bench_cmd(&argv(&["compare", "only-one.json"])).is_err());
        assert!(bench_cmd(&argv(&["compare", "/no/such/a.json", "/no/such/b.json"])).is_err());
        let err = bench_cmd(&argv(&["compare", "a", "b", "--gate-drift", "-0.5"])).unwrap_err();
        assert!(err.0.contains("non-negative"), "{err}");
        assert_eq!(crate::run(&argv(&["bench", "bogus"])), 2);
    }

    #[test]
    fn graph500_workload_via_cli() {
        simulate(&argv(&[
            "--manager",
            "classic",
            "--workload",
            "graph500",
            "--graph-scale",
            "10",
            "--phys",
            "2^12",
            "--accesses",
            "20k",
            "--warmup",
            "0",
            "--h",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn zipf_exponent_without_zipf_workload_exits_2() {
        let err = simulate(&argv(&["--zipf-s", "0", "--accesses", "1k"])).unwrap_err();
        assert!(err.0.contains("--workload zipf"), "{err}");
        assert_eq!(crate::run(&argv(&["simulate", "--zipf-s", "0"])), 2);
    }

    #[test]
    fn graph_scale_without_graph500_workload_exits_2() {
        let err = simulate(&argv(&["--graph-scale", "3", "--accesses", "1k"])).unwrap_err();
        assert!(err.0.contains("--workload graph500"), "{err}");
        assert_eq!(crate::run(&argv(&["simulate", "--graph-scale", "3"])), 2);
    }

    #[test]
    fn edge_factor_without_graph500_workload_exits_2() {
        let a = ["simulate", "--workload", "zipf", "--edge-factor", "3"];
        assert_eq!(crate::run(&argv(&a)), 2);
        let a = ["sweep", "--edge-factor", "3", "--accesses", "1k"];
        assert_eq!(crate::run(&argv(&a)), 2);
    }

    #[test]
    fn workload_options_on_tenants_exit_2() {
        let a = ["tenants", "--workload", "graph500", "--zipf-s", "3"];
        assert_eq!(crate::run(&argv(&a)), 2);
        let err = tenants_cmd(&argv(&["--workload", "graph500"])).unwrap_err();
        assert!(err.0.contains("simulate, sweep, multicore"), "{err}");
        let err = tenants_cmd(&argv(&["--zipf-s", "3"])).unwrap_err();
        assert!(err.0.contains("--workload zipf"), "{err}");
    }
}
