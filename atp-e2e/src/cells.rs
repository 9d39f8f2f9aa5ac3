//! The cells: each manager variant the benchmark times, how it is built,
//! and one driver call over a workload through the public `atp_sim`
//! drivers, bare or under the timing wrappers.

use std::rc::Rc;
use std::time::Instant;

use atp_core::{IcebergAlloc, IcebergParams};
use atp_memmgmt::classic::{ClassicConfig, ClassicStages};
use atp_memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp_memmgmt::only::{PagingOnlyStages, VirtualOnlyStages};
use atp_memmgmt::sparse::{SparseConfig, SparseStages};
use atp_memmgmt::thp::{ThpConfig, ThpStages};
use atp_memmgmt::{
    AccessReport, MemoryManager, Pipeline, Recorder, Stages, TenantArena, TenantManager, TenantMm,
    TenantMmConfig,
};
use atp_obs::{Profiler, RunObserver, Shared};
use atp_replacement::PolicyKind;
use atp_sim::DEFAULT_BATCH;
use atp_types::{Costs, TenantOp, VirtPage};

use crate::timing::{Probe, Tally, Timed, TimedMm, TimedTenant};
use crate::workload::Trace;

/// `atp simulate`'s defaults: LRU, ℓ = 1536 TLB entries, h = 64.
const TLB_ENTRIES: u64 = 1536;
const HUGE: u64 = 64;
const POLICY: PolicyKind = PolicyKind::Lru;
/// Manager seed, fixed so that `--seed` varies only the inputs.
const MGR_SEED: u64 = 42;
/// Window of the observed cell (the `--window` path).
const OBS_WINDOW: u64 = 1 << 16;
const EPSILON: f64 = 0.01;

/// The six single-address-space managers of `atp simulate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mgr {
    Classic,
    Decoupled,
    Sparse,
    Thp,
    X,
    Y,
}

impl Mgr {
    pub fn name(self) -> &'static str {
        match self {
            Mgr::Classic => "classic",
            Mgr::Decoupled => "decoupled",
            Mgr::Sparse => "sparse",
            Mgr::Thp => "thp",
            Mgr::X => "x",
            Mgr::Y => "y",
        }
    }
}

/// A callback generic over the stage type, so one match builds every
/// manager bare, timed, observed or profiled.
pub trait WithStages {
    type Out;
    fn call<S: Stages>(self, stages: S) -> Self::Out;
}

/// Builds `m`'s stages over `phys` physical pages and hands them to `f`.
pub fn with_stages<F: WithStages>(m: Mgr, phys: u64, f: F) -> F::Out {
    match m {
        Mgr::Classic => f.call(classic(phys)),
        Mgr::Decoupled => {
            let params = IcebergParams::derive(phys);
            f.call(DecoupledStages::new(
                IcebergAlloc::new(&params, MGR_SEED),
                DecoupledConfig {
                    tlb_value_bits: 64,
                    tlb_entries: TLB_ENTRIES,
                    tlb_policy: POLICY,
                    resident_pages: params.max_resident,
                    ram_policy: POLICY,
                    seed: MGR_SEED,
                },
            ))
        }
        Mgr::Sparse => {
            let params = IcebergParams::derive(phys);
            f.call(SparseStages::new(
                IcebergAlloc::new(&params, MGR_SEED),
                SparseConfig {
                    tlb_value_bits: 64,
                    coverage: HUGE,
                    tlb_entries: TLB_ENTRIES,
                    tlb_policy: POLICY,
                    resident_pages: params.max_resident,
                    ram_policy: POLICY,
                    seed: MGR_SEED,
                },
            ))
        }
        Mgr::Thp => f.call(ThpStages::new(ThpConfig {
            huge_pages: HUGE,
            phys_pages: phys - phys % HUGE,
            tlb_entries: TLB_ENTRIES,
            policy: POLICY,
            seed: MGR_SEED,
        })),
        Mgr::X => f.call(VirtualOnlyStages::new(HUGE, TLB_ENTRIES, POLICY, MGR_SEED)),
        Mgr::Y => f.call(PagingOnlyStages::new(phys, POLICY, MGR_SEED)),
    }
}

fn classic(phys: u64) -> ClassicStages {
    ClassicStages::new(ClassicConfig {
        huge_pages: HUGE,
        phys_pages: phys,
        tlb_entries: TLB_ENTRIES,
        tlb_policy: POLICY,
        ram_policy: POLICY,
        seed: MGR_SEED,
    })
}

fn tagged(phys: u64) -> TenantMm {
    TenantMm::new(TenantMmConfig {
        huge_pages: HUGE,
        phys_pages: phys,
        tlb_entries: TLB_ENTRIES,
        tlb_policy: POLICY,
        ram_policy: POLICY,
        seed: MGR_SEED,
    })
}

/// Rung 1 of the ladder: a manager that only counts, so a run through it
/// is the driver's cost alone.
#[derive(Debug, Default)]
pub struct NullMm {
    costs: Costs,
}

impl MemoryManager for NullMm {
    fn access(&mut self, _v: VirtPage) -> AccessReport {
        self.costs.accesses += 1;
        self.costs.tlb_hits += 1;
        AccessReport::default()
    }

    fn costs(&self) -> Costs {
        self.costs
    }

    fn reset_costs(&mut self) {
        self.costs = Costs::default();
    }

    fn name(&self) -> String {
        "null".into()
    }

    fn access_batch(&mut self, vs: &[VirtPage]) {
        let n = std::hint::black_box(vs).len() as u64;
        self.costs.accesses += n;
        self.costs.tlb_hits += n;
    }
}

/// One timed column of the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellId {
    /// The counting-only manager (ladder rung 1).
    Null,
    /// A single-address-space manager, unobserved.
    Mgr(Mgr),
    /// `x` under `Shared<RunObserver>` with a window: the
    /// `--window --metrics` path.
    XObserved,
    /// `x` through `run_batched_profiled`: the `--profile` path.
    XProfiled,
    /// `TenantMm`, the ASID-tagged manager.
    Tagged,
    /// `TenantArena` over classic.
    Arena,
}

impl CellId {
    /// Every cell, in measurement order within a rep round.
    pub const ALL: [CellId; 11] = [
        CellId::Null,
        CellId::Mgr(Mgr::X),
        CellId::Mgr(Mgr::Y),
        CellId::Mgr(Mgr::Decoupled),
        CellId::Mgr(Mgr::Classic),
        CellId::Mgr(Mgr::Sparse),
        CellId::Mgr(Mgr::Thp),
        CellId::XObserved,
        CellId::XProfiled,
        CellId::Tagged,
        CellId::Arena,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CellId::Null => "null",
            CellId::Mgr(m) => m.name(),
            CellId::XObserved => "x_observed",
            CellId::XProfiled => "x_profiled",
            CellId::Tagged => "tagged",
            CellId::Arena => "arena",
        }
    }

    /// Whether the cell reports an end-to-end `acc_per_s` metric.
    pub fn end_to_end(self) -> bool {
        self != CellId::Null
    }

    /// Warmup and measured accesses of this cell on `t`.
    fn budget(self, t: &Trace) -> (u64, u64) {
        match self {
            CellId::Mgr(Mgr::Thp) => t.thp,
            _ => (t.warmup, t.measure),
        }
    }

    /// Physical pages this cell's manager gets on `t`.
    fn phys(self, t: &Trace) -> u64 {
        match self {
            CellId::Mgr(Mgr::Thp) => t.thp_phys,
            _ => t.phys,
        }
    }
}

/// The simulated outcome of one driver call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub measure: Costs,
    pub warmup: Costs,
    /// TLB entries shot down during measurement (tenant managers).
    pub shootdowns: u64,
}

impl Outcome {
    /// Accesses the driver call made (warmup + measured).
    pub fn accesses(&self) -> u64 {
        self.measure.accesses + self.warmup.accesses
    }
}

/// One driver call: its outcome, its wall time, and (traced runs only)
/// what the wrappers recorded.
#[derive(Debug)]
pub struct Run {
    pub outcome: Outcome,
    pub wall_ns: f64,
    pub tally: Option<Tally>,
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e9
}

/// Drives a single-address-space manager over the page stream in
/// `batch`-access chunks and times the call.
fn drive<M: MemoryManager>(
    mm: &mut M,
    t: &Trace,
    (w, m): (u64, u64),
    batch: usize,
) -> (Outcome, f64) {
    let t0 = Instant::now();
    let s = atp_sim::run_batched(mm, t.pages.iter().copied(), w, m, batch);
    let wall = elapsed_ns(t0);
    let o = Outcome {
        measure: s.costs,
        warmup: s.warmup_costs,
        shootdowns: 0,
    };
    (o, wall)
}

/// Drives a tenant manager over the op stream (a single-tenant workload
/// is one tenant's stream with no switches) and times the call.
fn drive_tenants<T: TenantManager>(
    mm: &mut T,
    t: &Trace,
    (w, m): (u64, u64),
    batch: usize,
) -> (Outcome, f64) {
    let t0 = Instant::now();
    let s = match &t.ops {
        Some(ops) => atp_sim::run_tenants_batched(mm, ops.iter().copied(), w, m, batch),
        None => {
            let ops = t.pages.iter().map(|&v| TenantOp::Access(v));
            atp_sim::run_tenants_batched(mm, ops, w, m, batch)
        }
    };
    let wall = elapsed_ns(t0);
    let o = Outcome {
        measure: s.costs,
        warmup: s.warmup_costs,
        shootdowns: s.shootdowns,
    };
    (o, wall)
}

struct Bare<'a>(&'a Trace, (u64, u64));

impl WithStages for Bare<'_> {
    type Out = (Outcome, f64);
    fn call<S: Stages>(self, stages: S) -> Self::Out {
        drive(
            &mut Pipeline::from_stages(stages),
            self.0,
            self.1,
            DEFAULT_BATCH,
        )
    }
}

struct Traced<'a>(&'a Trace, (u64, u64), Rc<Probe>);

impl WithStages for Traced<'_> {
    type Out = (Outcome, f64);
    fn call<S: Stages>(self, stages: S) -> Self::Out {
        let Traced(t, budget, probe) = self;
        let pipeline = Pipeline::from_stages(Timed::new(stages, probe.clone()));
        drive(&mut TimedMm::new(pipeline, probe), t, budget, DEFAULT_BATCH)
    }
}

struct Build;

impl WithStages for Build {
    type Out = ();
    fn call<S: Stages>(self, stages: S) {
        std::hint::black_box(Pipeline::from_stages(stages));
    }
}

/// Builds `cell`'s manager for `t` and drops it: the construction part
/// of set-up.
pub fn construct(cell: CellId, t: &Trace) {
    match cell {
        CellId::Null => {
            std::hint::black_box(NullMm::default());
        }
        CellId::Mgr(m) => with_stages(m, cell.phys(t), Build),
        CellId::XObserved | CellId::XProfiled => with_stages(Mgr::X, t.phys, Build),
        CellId::Tagged => {
            std::hint::black_box(tagged(t.phys));
        }
        CellId::Arena => {
            std::hint::black_box(TenantArena::new(
                Pipeline::from_stages(classic(t.phys)),
                t.vspan,
            ));
        }
    }
}

/// One untraced driver call of `cell` over `t`, on a freshly built
/// manager.
pub fn run(cell: CellId, t: &Trace) -> Run {
    let budget = cell.budget(t);
    let (outcome, wall_ns) = match cell {
        CellId::Null => drive(&mut NullMm::default(), t, budget, DEFAULT_BATCH),
        CellId::Mgr(m) => with_stages(m, cell.phys(t), Bare(t, budget)),
        CellId::XObserved => {
            let obs =
                Shared::new(RunObserver::new(Recorder::new()).with_window(OBS_WINDOW, EPSILON));
            with_stages(Mgr::X, t.phys, Observed(t, budget, obs))
        }
        CellId::XProfiled => with_stages(Mgr::X, t.phys, Profiled(t, budget)),
        CellId::Tagged => drive_tenants(&mut tagged(t.phys), t, budget, DEFAULT_BATCH),
        CellId::Arena => {
            let mut arena = TenantArena::new(Pipeline::from_stages(classic(t.phys)), t.vspan);
            drive_tenants(&mut arena, t, budget, DEFAULT_BATCH)
        }
    };
    Run {
        outcome,
        wall_ns,
        tally: None,
    }
}

/// The arena over classic under all three wrappers, recording into
/// `probe`.
fn timed_arena(
    t: &Trace,
    probe: &Rc<Probe>,
) -> TimedTenant<TenantArena<TimedMm<Pipeline<Timed<ClassicStages>>>>> {
    let pipeline = Pipeline::from_stages(Timed::new(classic(t.phys), probe.clone()));
    let arena = TenantArena::new(TimedMm::new(pipeline, probe.clone()), t.vspan);
    TimedTenant::new(arena, probe.clone())
}

/// One driver call of `cell` under the timing wrappers. Cells without a
/// traced form return `None`.
pub fn run_traced(cell: CellId, t: &Trace) -> Option<Run> {
    let budget = cell.budget(t);
    let probe = Probe::new();
    let (outcome, wall_ns) = match cell {
        CellId::Mgr(m) => with_stages(m, cell.phys(t), Traced(t, budget, probe.clone())),
        CellId::Tagged => {
            let mut mm = TimedTenant::new(tagged(t.phys), probe.clone());
            drive_tenants(&mut mm, t, budget, DEFAULT_BATCH)
        }
        CellId::Arena => {
            let mut mm = timed_arena(t, &probe);
            drive_tenants(&mut mm, t, budget, DEFAULT_BATCH)
        }
        CellId::Null | CellId::XObserved | CellId::XProfiled => return None,
    };
    Some(Run {
        outcome,
        wall_ns,
        tally: Some(probe.tally()),
    })
}

struct Observed<'a>(&'a Trace, (u64, u64), Shared<RunObserver>);

impl WithStages for Observed<'_> {
    type Out = (Outcome, f64);
    fn call<S: Stages>(self, stages: S) -> Self::Out {
        let Observed(t, budget, obs) = self;
        drive(
            &mut Pipeline::with_observer(stages, obs),
            t,
            budget,
            DEFAULT_BATCH,
        )
    }
}

struct Profiled<'a>(&'a Trace, (u64, u64));

impl WithStages for Profiled<'_> {
    type Out = (Outcome, f64);
    fn call<S: Stages>(self, stages: S) -> Self::Out {
        let Profiled(t, (w, m)) = self;
        let mut mm = Pipeline::from_stages(stages);
        let mut prof = Profiler::new();
        let t0 = Instant::now();
        let s = atp_sim::run_batched_profiled(
            &mut mm,
            t.pages.iter().copied(),
            w,
            m,
            DEFAULT_BATCH,
            &mut prof,
        );
        let wall = elapsed_ns(t0);
        std::hint::black_box(&prof);
        let o = Outcome {
            measure: s.costs,
            warmup: s.warmup_costs,
            shootdowns: 0,
        };
        (o, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{self, Measured};
    use crate::timing::{Span, MM_CALLS, SAMPLE_EVERY, TENANT_CALLS};
    use crate::workload::take_tenant_ops;
    use atp_workloads::{TenantMix, Zipfian};

    const PHYS: u64 = 1 << 12;
    const VSPAN: u64 = 1 << 14;

    /// A short zipf trace, or a 16-tenant mix with churn.
    fn small(tenants: bool) -> Trace {
        let (ops, pages) = if tenants {
            let mix = TenantMix::new(7, 16, VSPAN, 1.1, 1.01, 64, 0.05);
            let (ops, pages) = take_tenant_ops(mix, VSPAN, 30_000);
            (Some(ops), pages)
        } else {
            (None, Zipfian::new(7, VSPAN, 1.0).take(30_000).collect())
        };
        Trace {
            pages,
            ops,
            phys: PHYS,
            vspan: VSPAN,
            warmup: 10_000,
            measure: 20_000,
            thp: (10_000, 20_000),
            thp_phys: PHYS,
        }
    }

    struct At<'a>(&'a Trace, usize, Option<Rc<Probe>>);

    impl WithStages for At<'_> {
        type Out = Outcome;
        fn call<S: Stages>(self, stages: S) -> Outcome {
            let At(t, batch, probe) = self;
            let budget = (t.warmup, t.measure);
            match probe {
                None => drive(&mut Pipeline::from_stages(stages), t, budget, batch).0,
                Some(p) => {
                    let pipeline = Pipeline::from_stages(Timed::new(stages, p.clone()));
                    drive(&mut TimedMm::new(pipeline, p), t, budget, batch).0
                }
            }
        }
    }

    #[test]
    fn timing_wrappers_change_no_outcome() {
        for tenants in [false, true] {
            let t = small(tenants);
            let budget = (t.warmup, t.measure);
            for batch in [1, 13, 4096] {
                for m in [
                    Mgr::Classic,
                    Mgr::Decoupled,
                    Mgr::Sparse,
                    Mgr::Thp,
                    Mgr::X,
                    Mgr::Y,
                ] {
                    let bare = with_stages(m, t.phys, At(&t, batch, None));
                    let timed = with_stages(m, t.phys, At(&t, batch, Some(Probe::new())));
                    assert_eq!(bare, timed, "{} at batch {batch}", m.name());
                    assert_eq!(bare.accesses(), 30_000);
                }
                let bare = drive_tenants(&mut tagged(t.phys), &t, budget, batch).0;
                let mut mm = TimedTenant::new(tagged(t.phys), Probe::new());
                let timed = drive_tenants(&mut mm, &t, budget, batch).0;
                assert_eq!(bare, timed, "tagged at batch {batch}");
                let mut arena = TenantArena::new(Pipeline::from_stages(classic(t.phys)), t.vspan);
                let bare = drive_tenants(&mut arena, &t, budget, batch).0;
                let timed = drive_tenants(&mut timed_arena(&t, &Probe::new()), &t, budget, batch).0;
                assert_eq!(bare, timed, "arena at batch {batch}");
            }
        }
    }

    #[test]
    fn sampler_times_one_group_in_sample_every() {
        let t = small(false);
        for batch in [1usize, 13, 4096] {
            let probe = Probe::new();
            with_stages(Mgr::Classic, t.phys, At(&t, batch, Some(probe.clone())));
            // Each phase is cut into `batch`-access chunks, each chunk into
            // 16-lane groups.
            let groups: u64 = [t.warmup, t.measure]
                .iter()
                .map(|&n| {
                    let (full, rest) = (n / batch as u64, n % batch as u64);
                    full * (batch as u64).div_ceil(16) + rest.div_ceil(16)
                })
                .sum();
            let tally = probe.tally();
            assert_eq!(tally.groups, groups, "batch {batch}");
            assert_eq!(
                tally.timed_groups,
                groups.div_ceil(SAMPLE_EVERY),
                "batch {batch}"
            );
            assert_eq!(
                tally.lanes, 30_000,
                "every lane is offered to retire_batch once"
            );
        }
    }

    #[test]
    fn null_mm_counts_every_access() {
        let t = small(false);
        let (o, _) = drive(&mut NullMm::default(), &t, (t.warmup, t.measure), 13);
        assert_eq!(o.warmup.accesses, 10_000);
        assert_eq!(o.measure.accesses, 20_000);
        assert_eq!(o.measure.tlb_hits, 20_000);
        let mut one = NullMm::default();
        one.access(VirtPage(3));
        assert_eq!(one.costs().accesses, 1);
    }

    #[test]
    fn no_self_time_is_negative() {
        for tenants in [false, true] {
            let t = small(tenants);
            let mut reps = Vec::new();
            let mut traced = Vec::new();
            for cell in CellId::ALL {
                reps.push((cell, vec![run(cell, &t)]));
                if let Some(r) = run_traced(cell, &t) {
                    let tally = r.tally.as_ref().expect("traced run has a tally");
                    // Spans nest: children inside their group, groups
                    // inside their batch, manager calls inside the
                    // driver call.
                    let calls = match cell {
                        CellId::Tagged | CellId::Arena => TENANT_CALLS,
                        _ => MM_CALLS,
                    };
                    let outer = tally.calls_raw_ns(calls);
                    assert!(tally.group_self_raw_ns() >= 0, "{}", cell.name());
                    assert!(tally.span(Span::MmBatch).raw_ns >= tally.group_raw_ns);
                    assert!(r.wall_ns >= outer as f64, "{}", cell.name());
                    traced.push((cell, vec![r]));
                }
            }
            assert_eq!(traced.len(), 8);
            let m = Measured {
                reps,
                setup_s: vec![0.1],
                gen_s: vec![0.05],
                trace_accesses: t.pages.len() as u64,
                peak_rss_mb: 1.0,
            };
            for metric in report::per_layer(&m, &traced) {
                assert!(
                    metric.value >= 0.0 && metric.value.is_finite(),
                    "{} = {}",
                    metric.name,
                    metric.value
                );
            }
        }
    }
}
