//! Differential suite for the batched software-pipelined engine: over
//! generated traces, `run_batched` (which routes every chunk through
//! `MemoryManager::access_batch` and the `Stages::prepare_batch`
//! prefetch hook) must be bit-for-bit equal to the single-step oracle —
//! same `Costs`, same observer stage counters modulo the driver-owned
//! `batches` field — for all seven managers × all four policies × batch
//! sizes {1, 8, 13, 4096}. The CLI's observer stack (`Shared<RunObserver>`
//! with a recorder, a phase-detecting window and an optional event ring)
//! must end every batched run in the single-step run's state. On
//! divergence the harness shrinks to a minimal diverging trace and prints
//! a replay seed.

use atp_check::oracles::{counters_modulo_batches, run_single_step};
use atp_check::{check_config, ensure_eq, u64s, vecs, Config, Gen};
use atp_core::{IcebergAlloc, IcebergParams};
use atp_memmgmt::classic::{ClassicConfig, ClassicStages};
use atp_memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp_memmgmt::hybrid::HybridStages;
use atp_memmgmt::only::{PagingOnlyStages, VirtualOnlyStages};
use atp_memmgmt::sparse::SparseStages;
use atp_memmgmt::thp::ThpStages;
use atp_memmgmt::{
    latency_classes, AccessReport, EvictionEvent, MemoryManager, NoopObserver, Pipeline, Recorder,
    SimObserver, SparseConfig, StageCounters, Stages, ThpConfig, TlbEvent,
};
use atp_obs::{PhaseConfig, RunObserver, Shared, Windowed};
use atp_replacement::PolicyKind;
use atp_sim::run_batched;
use atp_types::VirtPage;

const PHYS: u64 = 1 << 8;
const TLB: u64 = 16;
const BATCHES: [usize; 4] = [1, 8, 13, 4096];
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Clock,
    PolicyKind::Sieve,
];

/// Fresh instances of all seven manager families under one policy kind.
fn managers(policy: PolicyKind) -> Vec<Box<dyn MemoryManager>> {
    managers_with(policy, &|| NoopObserver)
}

/// [`managers`], each pipeline over an observer from `obs`.
fn managers_with<O: SimObserver + 'static>(
    policy: PolicyKind,
    obs: &dyn Fn() -> O,
) -> Vec<Box<dyn MemoryManager>> {
    let params = IcebergParams::derive(PHYS);
    let decoupled_cfg = |seed: u64| DecoupledConfig {
        tlb_value_bits: 64,
        tlb_entries: TLB,
        tlb_policy: policy,
        resident_pages: params.max_resident,
        ram_policy: policy,
        seed,
    };
    vec![
        Box::new(Pipeline::with_observer(
            ClassicStages::new(ClassicConfig {
                huge_pages: 8,
                phys_pages: PHYS,
                tlb_entries: TLB,
                tlb_policy: policy,
                ram_policy: policy,
                seed: 11,
            }),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            VirtualOnlyStages::new(8, TLB, policy, 11),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            PagingOnlyStages::new(PHYS, policy, 11),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            DecoupledStages::new(IcebergAlloc::new(&params, 11), decoupled_cfg(11)),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            HybridStages::new(IcebergAlloc::new(&params, 13), decoupled_cfg(13), 4),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            SparseStages::new(
                IcebergAlloc::new(&params, 17),
                SparseConfig {
                    tlb_value_bits: 64,
                    coverage: 64,
                    tlb_entries: TLB,
                    tlb_policy: policy,
                    resident_pages: params.max_resident,
                    ram_policy: policy,
                    seed: 17,
                },
            ),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            ThpStages::new(ThpConfig {
                huge_pages: 8,
                phys_pages: PHYS,
                tlb_entries: TLB,
                policy,
                seed: 19,
            }),
            obs(),
        )),
    ]
}

/// Generated traces: page ids over a space 16× physical memory, so every
/// manager sees a healthy mix of hits, capacity misses, and (for the
/// decoupled family) paging churn. Shrinks by deleting chunks.
fn trace_gen() -> impl Gen<Value = Vec<u64>> {
    vecs(u64s(0..=(PHYS * 16) - 1), 0..=900)
}

/// One full differential: batched vs single-step for every manager at
/// one (policy, batch) point, over one generated trace.
fn diff_all_managers(pages: &[u64], policy: PolicyKind, batch: usize) -> Result<(), String> {
    let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
    let warmup = (trace.len() / 3) as u64;
    let measure = trace.len() as u64; // consume the remainder
    let n = managers(policy).len();
    for slot in 0..n {
        let mut batched = managers(policy).remove(slot);
        let mut oracle = managers(policy).remove(slot);
        let name = batched.name();
        let stats = run_batched(
            batched.as_mut(),
            trace.iter().copied(),
            warmup,
            measure,
            batch,
        );
        let (warmup_costs, costs) =
            run_single_step(oracle.as_mut(), trace.iter().copied(), warmup, measure);
        ensure_eq!(
            stats.warmup_costs,
            warmup_costs,
            "{name}: warmup costs diverged ({policy:?}, batch {batch})"
        );
        ensure_eq!(
            stats.costs,
            costs,
            "{name}: measured costs diverged ({policy:?}, batch {batch})"
        );
    }
    Ok(())
}

#[test]
fn batched_engine_matches_single_step_for_every_manager_policy_and_batch() {
    assert_eq!(managers(PolicyKind::Lru).len(), 7, "cover every family");
    for policy in POLICIES {
        for batch in BATCHES {
            let name = format!("diff_batch_engine_{policy:?}_{batch}").to_lowercase();
            let cfg = Config::for_property(&name).with_cases(2);
            check_config(&name, &trace_gen(), &cfg, |pages| {
                diff_all_managers(pages, policy, batch)
            });
        }
    }
}

/// One typed observer callback — everything the pipeline can emit except
/// the driver-owned batch boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Access(VirtPage, AccessReport),
    Tlb(TlbEvent),
    Eviction(EvictionEvent),
    DecodeMiss(VirtPage),
}

/// Records the full ordered event stream; batch boundaries are counted
/// separately so streams compare modulo chunking alone.
#[derive(Debug, Default)]
struct EventLog {
    events: Vec<Event>,
    boundaries: u64,
}

impl SimObserver for EventLog {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.events.push(Event::Access(v, report));
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        self.events.push(Event::Tlb(event));
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.events.push(Event::Eviction(event));
    }

    fn on_decode_miss(&mut self, v: VirtPage) {
        self.events.push(Event::DecodeMiss(v));
    }

    fn on_batch_boundary(&mut self, _len: usize) {
        self.boundaries += 1;
    }
}

/// The strongest batching invariant: the *ordered typed event stream* of
/// a batched run equals the sequential one exactly — not just counters.
/// This pins the `retire_batch` fast path to emitting precisely the
/// per-access hit epilogue, in access order, for each retired lane.
fn diff_event_streams<S: Stages>(
    mk: &dyn Fn() -> S,
    pages: &[u64],
    label: &str,
) -> Result<(), String> {
    let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
    let warmup = (trace.len() / 3) as u64;
    let measure = trace.len() as u64;
    let mut oracle = Pipeline::with_observer(mk(), EventLog::default());
    run_single_step(&mut oracle, trace.iter().copied(), warmup, measure);
    ensure_eq!(
        oracle.observer().boundaries,
        0,
        "{label}: single-step oracle saw batch boundaries"
    );
    for batch in BATCHES {
        let mut sut = Pipeline::with_observer(mk(), EventLog::default());
        run_batched(&mut sut, trace.iter().copied(), warmup, measure, batch);
        ensure_eq!(
            sut.observer().events,
            oracle.observer().events,
            "{label}: event streams diverged at batch {batch}"
        );
    }
    Ok(())
}

#[test]
fn observer_event_streams_match_for_every_policy() {
    // Every staged manager with a `retire_batch` fast path, under every
    // policy: the batched run's typed event stream must be the
    // sequential one, element for element.
    for policy in POLICIES {
        let name = format!("diff_batch_engine_events_{policy:?}").to_lowercase();
        let run_cfg = Config::for_property(&name).with_cases(2);
        check_config(&name, &trace_gen(), &run_cfg, |pages| {
            diff_event_streams(
                &|| {
                    ClassicStages::new(ClassicConfig {
                        huge_pages: 8,
                        phys_pages: PHYS,
                        tlb_entries: TLB,
                        tlb_policy: policy,
                        ram_policy: policy,
                        seed: 11,
                    })
                },
                pages,
                "classic",
            )?;
            diff_event_streams(
                &|| VirtualOnlyStages::new(8, TLB, policy, 11),
                pages,
                "virtual-only",
            )?;
            diff_event_streams(
                &|| PagingOnlyStages::new(PHYS, policy, 11),
                pages,
                "paging-only",
            )
        });
    }
}

#[test]
fn observer_counters_match_for_every_policy() {
    // The prepare_batch prefetch hook runs on the classic pipeline's own
    // structures; the recorder must see identical per-stage event
    // streams regardless of chunking, for every policy kind.
    for policy in POLICIES {
        let cfg = || ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: policy,
            ram_policy: policy,
            seed: 11,
        };
        let name = format!("diff_batch_engine_counters_{policy:?}").to_lowercase();
        let run_cfg = Config::for_property(&name).with_cases(2);
        check_config(&name, &trace_gen(), &run_cfg, |pages| {
            let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
            let warmup = (trace.len() / 3) as u64;
            let measure = trace.len() as u64;
            let mut oracle = Pipeline::with_observer(ClassicStages::new(cfg()), Recorder::new());
            run_single_step(&mut oracle, trace.iter().copied(), warmup, measure);
            let want = counters_modulo_batches(oracle.observer().counters());
            for batch in BATCHES {
                let mut sut = Pipeline::with_observer(ClassicStages::new(cfg()), Recorder::new());
                run_batched(&mut sut, trace.iter().copied(), warmup, measure, batch);
                ensure_eq!(
                    counters_modulo_batches(sut.observer().counters()),
                    want,
                    "stage counters diverged ({policy:?}, batch {batch})"
                );
            }
            Ok(())
        });
    }
}

/// Batch sizes for the observer-stack differential: a singleton run, runs
/// that end mid lane group, and the driver's default chunk.
const OBS_BATCHES: [usize; 3] = [1, 13, 4096];

/// The windowed layer's slice: odd and shorter than a lane group, so hit
/// runs end at, straddle and span window edges.
const OBS_WINDOW: u64 = 7;

/// `atp simulate --metrics --window --phases`'s observer, plus
/// `--trace-events` when `events`: a reuse-tracking recorder, a window
/// whose detector opens a phase on almost any change, and an event ring
/// large enough that nothing drops.
fn run_observer(events: bool) -> Shared<RunObserver> {
    let obs = RunObserver::new(Recorder::new()).with_window(OBS_WINDOW, 0.01);
    let obs = if events {
        obs.with_events(1 << 16)
    } else {
        obs
    };
    Shared::new(obs.with_phases(PhaseConfig {
        warm_windows: 1,
        abs_floor_ppm: 1,
        rel_pct: 1,
    }))
}

/// What an observed run leaves behind, modulo the driver's batch
/// boundaries: recorder state, the windowed CSV and the event lines.
#[derive(Debug, PartialEq)]
struct Captured {
    counters: StageCounters,
    reuse: Vec<u64>,
    cold: u64,
    latency: Vec<u64>,
    accesses: u64,
    windows: String,
    events: Vec<String>,
}

fn capture(obs: &Shared<RunObserver>) -> Captured {
    obs.with(|o| Captured {
        counters: counters_modulo_batches(o.recorder.counters()),
        reuse: o.recorder.reuse_histogram().to_vec(),
        cold: o.recorder.cold_accesses(),
        latency: latency_classes()
            .iter()
            .map(|&c| o.recorder.latency_class(c))
            .collect(),
        accesses: o.recorder.accesses(),
        windows: o
            .windowed
            .as_ref()
            .map(Windowed::to_csv)
            .unwrap_or_default(),
        // The JSONL header counts batch boundaries too, so only the event
        // lines are compared.
        events: o
            .events
            .as_ref()
            .map(|e| {
                e.to_jsonl()
                    .lines()
                    .skip(1)
                    .filter(|l| !l.contains("\"batch_boundary\""))
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Folds seven in eight generated pages into a 64-page hot set, so the
/// fast path retires long hit runs that end at, straddle and span window
/// edges, while the other pages still miss and move the phase detector.
fn hot_mix(p: u64) -> u64 {
    if p.is_multiple_of(8) {
        p
    } else {
        p % 64
    }
}

/// Every manager under the observer stack: batched runs at each of
/// [`OBS_BATCHES`] must capture what the single-step run captures.
fn diff_observed_runs(pages: &[u64], policy: PolicyKind, events: bool) -> Result<(), String> {
    let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(hot_mix(p))).collect();
    let warmup = (trace.len() / 3) as u64;
    let measure = trace.len() as u64;
    for slot in 0..managers(policy).len() {
        let gold = run_observer(events);
        let mut oracle = managers_with(policy, &|| gold.clone()).remove(slot);
        run_single_step(oracle.as_mut(), trace.iter().copied(), warmup, measure);
        let want = capture(&gold);
        for batch in OBS_BATCHES {
            let obs = run_observer(events);
            let mut sut = managers_with(policy, &|| obs.clone()).remove(slot);
            run_batched(sut.as_mut(), trace.iter().copied(), warmup, measure, batch);
            ensure_eq!(
                capture(&obs),
                want,
                "{}: observer state diverged ({policy:?}, batch {batch}, events {events})",
                oracle.name()
            );
        }
    }
    Ok(())
}

#[test]
fn run_observer_stack_matches_single_step_for_every_manager() {
    for policy in POLICIES {
        let name = format!("diff_batch_engine_run_observer_{policy:?}").to_lowercase();
        let cfg = Config::for_property(&name).with_cases(2);
        check_config(&name, &trace_gen(), &cfg, |pages| {
            diff_observed_runs(pages, policy, false)?;
            diff_observed_runs(pages, policy, true)
        });
    }
}
