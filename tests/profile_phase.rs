//! Acceptance tests for the observability stack: the profiler's
//! resolution-cache breakdown must reconcile *exactly* with an
//! independent replacement-simulator replay (profiling is accounting,
//! never sampling), profiled runs must be observationally identical to
//! unprofiled ones, and online phase detection must fire within one
//! window of a synthetic ground-truth phase shift.

use atp::memmgmt::classic::{ClassicConfig, ClassicStages};
use atp::memmgmt::{Pipeline, Recorder};
use atp::obs::{PhaseConfig, Profiler, RunObserver, Shared};
use atp::replacement::{CacheSim, Lru, PolicyKind};
use atp::tlb::Tlb;
use atp::types::{EvictCause, StageOp, VirtHugePage, VirtPage};

/// A churny two-component key stream: a small hot set (speculative
/// fast-lane hits), plus a sweep over 1500 keys overflowing a 512-entry
/// cache (cold misses) whose refills keep displacing resolution-cache
/// hints (stale-hint hits). Exercises all three resolution outcomes.
fn churny_keys() -> Vec<u64> {
    (0..30_000u64)
        .map(|i| {
            if i % 3 == 0 {
                i % 37
            } else {
                37 + i.wrapping_mul(2654435761) % 1500
            }
        })
        .collect()
}

/// The profiler's hit/stale/cold split is a *partition* of the cache's
/// hit/miss totals: `rc_hit + rc_stale` is exactly the hit count and
/// `rc_cold` exactly the miss count of an independent LRU replay of the
/// same key stream. Differential, not golden: the gold model shares no
/// code with the batched engine beyond the policy definition.
#[test]
fn profiler_reconciles_exactly_with_an_independent_lru_replay() {
    const ENTRIES: u64 = 512;
    const BATCH: usize = 256;
    let keys = churny_keys();

    let mut tlb: Tlb<u64> = Tlb::monomorphic(ENTRIES, 7);
    let mut prof = Profiler::new();
    for chunk in keys.chunks(BATCH) {
        tlb.access_or_fill_batch(chunk, VirtHugePage, |k| k.0, &mut prof);
    }

    let mut gold = CacheSim::new(ENTRIES as usize, Lru::new(ENTRIES as usize));
    for &k in &keys {
        gold.access(k);
    }

    // The trace genuinely exercises every outcome the breakdown names.
    assert!(gold.hits() > 0, "trace produced no hits");
    assert!(gold.misses() > 0, "trace produced no misses");
    assert!(prof.rc_hits() > 0, "no speculative fast-lane hits");
    assert!(prof.rc_stales() > 0, "no stale-hint slow-lane hits");

    // Engine vs gold: LRU is deterministic, so any correct implementation
    // produces identical hit/miss totals on the same stream.
    let stats = tlb.stats();
    assert_eq!(stats.hits, gold.hits(), "engine hits diverge from gold");
    assert_eq!(
        stats.misses,
        gold.misses(),
        "engine misses diverge from gold"
    );

    // The reconciliation invariant itself.
    assert_eq!(
        prof.rc_hits() + prof.rc_stales(),
        gold.hits(),
        "rc_hit + rc_stale must partition the hit count"
    );
    assert_eq!(
        prof.rc_colds(),
        gold.misses(),
        "rc_cold must equal the miss count"
    );
    assert_eq!(
        prof.resolutions(),
        keys.len() as u64,
        "every access is exactly one resolution"
    );

    // Structural cross-checks on the histograms: one probe per slow-lane
    // resolution, and the miss-run lengths partition the misses.
    assert_eq!(
        prof.probe_len_hist().count(),
        prof.rc_stales() + prof.rc_colds(),
        "one probe-length sample per slow-lane resolution"
    );
    assert_eq!(
        prof.miss_run_hist().sum(),
        prof.rc_colds(),
        "miss-run lengths must sum to the miss count"
    );
    assert_eq!(
        prof.evictions(EvictCause::Capacity),
        stats.evictions,
        "profiled evictions must match engine eviction count"
    );
}

/// Profiling must never perturb the run: a profiled pipeline produces
/// bit-identical costs to an unprofiled one, and its stage accounting
/// covers every access (prepared lanes split exactly into fast-retired
/// and replayed).
#[test]
fn profiled_pipeline_run_is_unperturbed_and_accounts_every_access() {
    const WARMUP: u64 = 2_000;
    const MEASURE: u64 = 10_000;
    const BATCH: usize = 512;
    let config = ClassicConfig {
        huge_pages: 8,
        phys_pages: 1 << 12,
        tlb_entries: 128,
        tlb_policy: PolicyKind::Lru,
        ram_policy: PolicyKind::Lru,
        seed: 11,
    };
    let trace = || {
        atp::workloads::Zipfian::new(42, 1 << 14, 1.1)
            .take((WARMUP + MEASURE) as usize)
            .collect::<Vec<_>>()
    };

    let mut plain = Pipeline::from_stages(ClassicStages::new(config));
    let plain_stats = atp::sim::run_batched(&mut plain, trace(), WARMUP, MEASURE, BATCH);

    let mut prof = Profiler::new();
    let mut profiled = Pipeline::from_stages(ClassicStages::new(config));
    let prof_stats =
        atp::sim::run_batched_profiled(&mut profiled, trace(), WARMUP, MEASURE, BATCH, &mut prof);

    assert_eq!(
        plain_stats.costs, prof_stats.costs,
        "profiling must not perturb measured costs"
    );
    assert_eq!(
        plain_stats.warmup_costs, prof_stats.warmup_costs,
        "profiling must not perturb warmup costs"
    );

    // Stage accounting: every access is prepared once, and each prepared
    // lane either fast-retires or replays through all three stages.
    assert_eq!(prof.stage_ops(StageOp::Prepare), WARMUP + MEASURE);
    assert_eq!(
        prof.stage_ops(StageOp::RetireFast) + prof.stage_ops(StageOp::Tlb),
        prof.stage_ops(StageOp::Prepare),
        "fast-retired + replayed must cover every prepared lane"
    );
    assert_eq!(
        prof.stage_ops(StageOp::Tlb),
        prof.stage_ops(StageOp::Translate),
        "every replayed lane runs the full stage walk"
    );
    assert_eq!(
        prof.lane_occupancy_hist().sum(),
        prof.stage_ops(StageOp::RetireFast),
        "lane-occupancy samples must sum to the fast-retired count"
    );
}

/// Online phase detection on a synthetic two-phase trace: a tiny hot set
/// for the first half, then a huge-page-per-access sweep. The detector
/// must report exactly one boundary, within one window of the
/// ground-truth shift.
#[test]
fn phase_detection_fires_within_one_window_of_the_shift() {
    const WINDOW: u64 = 1_000;
    const TOTAL: u64 = 16_000;
    const SHIFT: u64 = 8_000;
    let trace: Vec<VirtPage> = (0..TOTAL)
        .map(|i| {
            if i < SHIFT {
                // Phase A: 16 hot pages (4 huge pages) — near-zero misses.
                VirtPage(i % 16)
            } else {
                // Phase B: a fresh huge page every access — ~100% misses.
                VirtPage((1 << 20) | ((i - SHIFT) * 8))
            }
        })
        .collect();

    let obs = Shared::new(
        RunObserver::new(Recorder::new())
            .with_window(WINDOW, 0.01)
            .with_phases(PhaseConfig::default()),
    );
    let mut pipeline = Pipeline::with_observer(
        ClassicStages::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: 1 << 12,
            tlb_entries: 64,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 3,
        }),
        obs.clone(),
    );
    atp::sim::run_batched(&mut pipeline, trace, 0, TOTAL, 512);
    drop(pipeline);

    let shift_window = SHIFT / WINDOW;
    obs.with(|o| {
        let windowed = o.windowed.as_ref().expect("window stack attached");
        let det = windowed.detector().expect("phase detection attached");
        let boundaries = det.boundaries();
        assert_eq!(
            boundaries.len(),
            1,
            "exactly one phase shift in the trace: {boundaries:?}"
        );
        let b = boundaries[0];
        assert!(
            b.window == shift_window || b.window == shift_window + 1,
            "boundary at window {} but ground-truth shift is window {shift_window}",
            b.window
        );
        assert!(
            b.to_ppm > b.from_ppm,
            "hot-to-sweep shift must raise the miss rate: {b:?}"
        );
        assert_eq!(b.phase, 1, "first boundary opens phase 1");

        // The window CSV stamps each row with its phase.
        let csv = windowed.to_csv();
        let header = csv.lines().next().expect("csv header");
        assert!(header.ends_with(",phase"), "phase column missing: {header}");
        for (i, row) in csv.lines().skip(1).enumerate() {
            let phase: u64 = row.rsplit(',').next().unwrap().parse().unwrap();
            let want = u64::from(i as u64 >= b.window);
            assert_eq!(phase, want, "row {i} mis-stamped: {row}");
        }
    });
}
