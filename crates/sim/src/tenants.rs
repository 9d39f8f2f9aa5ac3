//! Context-switch-aware driver for multi-tenant traces.
//!
//! Mirrors [`crate::runner`]'s warmup/measure protocol, but over
//! [`TenantOp`] streams: `Access` records are replayed against the
//! current tenant, `Switch` records change the current tenant (free for
//! ASID-tagged managers, a shootdown storm for anything that must
//! flush), and `Retire` records tear a tenant down so its ASID can be
//! recycled. Only `Access` records count toward the warmup/measure
//! quotas — control records ride along with whatever access they
//! precede, so the same access sequence under different switch cadences
//! stays length-comparable.
//!
//! The current tenant starts at [`Asid::SINGLE`], so a stream with no
//! `Switch` records drives the manager exactly like the single-tenant
//! runner drives a [`atp_memmgmt::MemoryManager`].

use atp_memmgmt::TenantManager;
use atp_types::{Asid, Costs, TenantOp, VirtPage};

use crate::runner::{DEFAULT_BATCH, MAX_CHUNK_RESERVE};

/// Result of one multi-tenant run.
///
/// Wall-clock-free like [`crate::runner::SimStats`]: a pure function of
/// (manager, ops, warmup, measure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// Manager description.
    pub name: String,
    /// Aggregate costs accumulated during the measurement phase.
    pub costs: Costs,
    /// Aggregate costs accumulated during warmup (informational).
    pub warmup_costs: Costs,
    /// Per-tenant measurement-phase costs, ascending by ASID.
    pub per_tenant: Vec<(Asid, Costs)>,
    /// Context switches replayed during measurement.
    pub switches: u64,
    /// Tenants retired during measurement.
    pub retirements: u64,
    /// TLB entries shot down by measurement-phase switches and
    /// retirements (the shootdown storm; 0 for tagged TLBs under pure
    /// switching).
    pub shootdowns: u64,
}

impl TenantStats {
    /// Distinct tenants that made at least one measured access.
    pub fn tenants_seen(&self) -> usize {
        self.per_tenant.len()
    }
}

/// Drives `mgr` over `ops` with the warmup/measure protocol and the
/// default batch size.
pub fn run_tenants<M: TenantManager + ?Sized>(
    mgr: &mut M,
    ops: impl IntoIterator<Item = TenantOp>,
    warmup: u64,
    measure: u64,
) -> TenantStats {
    run_tenants_batched(mgr, ops, warmup, measure, DEFAULT_BATCH)
}

/// [`run_tenants`] with an explicit batch size (accesses per
/// [`TenantManager::batch_boundary`] announcement).
///
/// # Panics
/// Panics if `batch` is zero.
pub fn run_tenants_batched<M: TenantManager + ?Sized>(
    mgr: &mut M,
    ops: impl IntoIterator<Item = TenantOp>,
    warmup: u64,
    measure: u64,
    batch: usize,
) -> TenantStats {
    run_phases(mgr, ops, warmup, measure, batch, None)
}

/// [`run_tenants_batched`] with a per-window snapshot callback for
/// time-series consumers (per-tenant phase detection in the CLI).
///
/// After every `window` measured accesses — and after the final partial
/// window, if the stream or quota ends mid-window — `on_window` receives
/// the window index (0-based) and each tenant's cost *delta* for that
/// window, ascending by ASID; tenants with no activity in the window are
/// omitted. The replayed op sequence, and therefore every cost in the
/// returned [`TenantStats`], is bit-identical to the unwindowed driver:
/// only the `batch_boundary` announcement cadence differs (chunks restart
/// at window edges), which the `TenantManager` contract requires to be
/// cost-invariant.
///
/// An ASID whose delta would run backwards (the tenant was retired and
/// the ASID recycled inside one window) is reported as the recycled
/// tenant's absolute costs — a fresh start, not an underflow.
///
/// # Panics
/// Panics if `batch` or `window` is zero.
pub fn run_tenants_batched_windowed<M: TenantManager + ?Sized>(
    mgr: &mut M,
    ops: impl IntoIterator<Item = TenantOp>,
    warmup: u64,
    measure: u64,
    batch: usize,
    window: u64,
    mut on_window: impl FnMut(u64, &[(Asid, Costs)]),
) -> TenantStats {
    assert!(window > 0, "window size must be positive");
    let windows: Windows<'_> = (window, &mut on_window);
    run_phases(mgr, ops, warmup, measure, batch, Some(windows))
}

/// A measure-phase window callback: `(window size, on_window)`.
type Windows<'a> = (u64, &'a mut dyn FnMut(u64, &[(Asid, Costs)]));

/// The warmup → reset → measure protocol shared by
/// [`run_tenants_batched`] and [`run_tenants_batched_windowed`]: the
/// measure phase is one [`drive`] call, or one per window.
fn run_phases<M: TenantManager + ?Sized>(
    mgr: &mut M,
    ops: impl IntoIterator<Item = TenantOp>,
    warmup: u64,
    measure: u64,
    batch: usize,
    windows: Option<Windows<'_>>,
) -> TenantStats {
    assert!(batch > 0, "batch size must be positive");
    let mut iter = ops.into_iter();
    let mut current = Asid::SINGLE;

    drive(mgr, &mut iter, &mut current, warmup, batch);
    let warmup_costs = mgr.costs();
    mgr.reset_costs();
    let measured = match windows {
        None => drive(mgr, &mut iter, &mut current, measure, batch),
        Some(w) => drive_windows(mgr, &mut iter, &mut current, measure, batch, w),
    };

    TenantStats {
        name: mgr.name(),
        costs: mgr.costs(),
        warmup_costs,
        per_tenant: mgr.tenant_costs(),
        switches: measured.switches,
        retirements: measured.retirements,
        shootdowns: measured.shootdowns,
    }
}

/// The windowed measure phase: [`drive`] one `window`-access quota at a
/// time, reporting each window's per-tenant deltas to `on_window`.
fn drive_windows<M: TenantManager + ?Sized>(
    mgr: &mut M,
    iter: &mut impl Iterator<Item = TenantOp>,
    current: &mut Asid,
    measure: u64,
    batch: usize,
    (window, on_window): Windows<'_>,
) -> PhaseCounts {
    let mut counts = PhaseCounts::default();
    let mut prev: Vec<(Asid, Costs)> = mgr.tenant_costs();
    let mut done = 0u64;
    let mut index = 0u64;
    while done < measure {
        let quota = window.min(measure - done);
        let before = mgr.costs().accesses;
        let c = drive(mgr, iter, current, quota, batch);
        counts.switches += c.switches;
        counts.retirements += c.retirements;
        counts.shootdowns += c.shootdowns;
        let made = mgr.costs().accesses - before;
        if made == 0 {
            break; // stream exhausted before the quota
        }
        done += made;
        let cur = mgr.tenant_costs();
        let deltas = tenant_deltas(&prev, &cur);
        on_window(index, &deltas);
        prev = cur;
        index += 1;
    }
    counts
}

/// Per-tenant cost deltas `cur − prev`, omitting untouched tenants. A
/// tenant whose access count went backwards (retire + ASID recycle within
/// the window) restarts from its absolute costs.
fn tenant_deltas(prev: &[(Asid, Costs)], cur: &[(Asid, Costs)]) -> Vec<(Asid, Costs)> {
    cur.iter()
        .map(|&(a, c)| {
            let p = prev
                .iter()
                .find(|(pa, _)| *pa == a)
                .map(|&(_, p)| p)
                .unwrap_or_default();
            let d = if c.accesses < p.accesses {
                c
            } else {
                Costs {
                    ios: c.ios - p.ios,
                    tlb_misses: c.tlb_misses - p.tlb_misses,
                    decode_misses: c.decode_misses - p.decode_misses,
                    paging_failures: c.paging_failures - p.paging_failures,
                    accesses: c.accesses - p.accesses,
                    tlb_hits: c.tlb_hits - p.tlb_hits,
                }
            };
            (a, d)
        })
        .filter(|(_, d)| *d != Costs::default())
        .collect()
}

#[derive(Default)]
struct PhaseCounts {
    switches: u64,
    retirements: u64,
    shootdowns: u64,
}

/// Hands the buffered same-tenant run to the manager's batched fast path
/// and folds its length into the boundary chunk counter.
fn flush<M: TenantManager + ?Sized>(
    mgr: &mut M,
    asid: Asid,
    buf: &mut Vec<VirtPage>,
    chunk: &mut usize,
) {
    if !buf.is_empty() {
        mgr.access_batch(asid, buf);
        *chunk += buf.len();
        buf.clear();
    }
}

/// Replays ops until `quota` accesses have been made or the stream ends.
/// Control records (`Switch`, `Retire`) do not consume quota.
///
/// Consecutive same-tenant accesses are buffered and retired through
/// [`TenantManager::access_batch`] (bit-for-bit equal to per-access
/// replay by contract); a control record, a batch-boundary crossing, or
/// the end of the phase flushes the buffer first, so op order and the
/// `batch_boundary` cadence (counted in accesses, spanning control
/// records) are exactly those of the per-access driver.
fn drive<M: TenantManager + ?Sized>(
    mgr: &mut M,
    iter: &mut impl Iterator<Item = TenantOp>,
    current: &mut Asid,
    quota: u64,
    batch: usize,
) -> PhaseCounts {
    let mut counts = PhaseCounts::default();
    let mut remaining = quota;
    let mut chunk = 0usize;
    let mut buf: Vec<VirtPage> = Vec::with_capacity(batch.min(MAX_CHUNK_RESERVE));
    while remaining > 0 {
        let Some(op) = iter.next() else { break };
        match op {
            TenantOp::Access(v) => {
                buf.push(v);
                remaining -= 1;
                if chunk + buf.len() == batch {
                    mgr.access_batch(*current, &buf);
                    buf.clear();
                    mgr.batch_boundary(batch);
                    chunk = 0;
                }
            }
            TenantOp::Switch(to) => {
                if to != *current {
                    flush(mgr, *current, &mut buf, &mut chunk);
                    counts.shootdowns += mgr.context_switch(*current, to);
                    counts.switches += 1;
                    *current = to;
                }
            }
            TenantOp::Retire(asid) => {
                flush(mgr, *current, &mut buf, &mut chunk);
                counts.shootdowns += mgr.retire_tenant(asid);
                counts.retirements += 1;
            }
        }
    }
    flush(mgr, *current, &mut buf, &mut chunk);
    if chunk > 0 {
        mgr.batch_boundary(chunk);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_memmgmt::classic::{ClassicConfig, ClassicMm};
    use atp_memmgmt::{TenantArena, TenantMm, TenantMmConfig};
    use atp_types::VirtPage;

    fn access_ops(n: u64, span: u64) -> impl Iterator<Item = TenantOp> {
        (0..n).map(move |i| TenantOp::Access(VirtPage((i * 13) % span)))
    }

    #[test]
    fn switchless_stream_matches_single_tenant_runner() {
        // No Switch records → TenantArena over ClassicMm must reproduce
        // the plain runner bit-for-bit.
        let trace: Vec<VirtPage> = (0..4000u64).map(|i| VirtPage((i * 13) % 700)).collect();
        let mut bare = ClassicMm::new(ClassicConfig::paper(4, 256));
        let bare_stats = crate::runner::run(&mut bare, trace.iter().copied(), 1000, 3000);

        let mut arena = TenantArena::new(ClassicMm::new(ClassicConfig::paper(4, 256)), 1 << 16);
        let stats = run_tenants(
            &mut arena,
            trace.iter().copied().map(TenantOp::Access),
            1000,
            3000,
        );
        assert_eq!(stats.costs, bare_stats.costs);
        assert_eq!(stats.warmup_costs, bare_stats.warmup_costs);
        assert_eq!(stats.per_tenant, vec![(Asid::SINGLE, bare_stats.costs)]);
        assert_eq!(stats.switches, 0);
        assert_eq!(stats.shootdowns, 0);
    }

    #[test]
    fn control_records_do_not_consume_quota() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(4, 1 << 10));
        // 100 accesses interleaved with a switch before each one: all
        // 100 must land inside a 100-access measure phase.
        let ops: Vec<TenantOp> = (0..100u64)
            .flat_map(|i| {
                [
                    TenantOp::Switch(Asid((i % 4) as u32)),
                    TenantOp::Access(VirtPage(i)),
                ]
            })
            .collect();
        let stats = run_tenants(&mut mm, ops, 0, 100);
        assert_eq!(stats.costs.accesses, 100);
        assert_eq!(stats.tenants_seen(), 4);
        // First Switch(0) is a no-op (already current); the rest count.
        assert!(stats.switches > 0);
        assert_eq!(stats.shootdowns, 0, "tagged TLB: switches flush nothing");
    }

    #[test]
    fn retirement_storms_are_counted() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(4, 1 << 10));
        let mut ops: Vec<TenantOp> = vec![TenantOp::Switch(Asid(1))];
        ops.extend(access_ops(64, 64));
        ops.push(TenantOp::Retire(Asid(1)));
        ops.push(TenantOp::Switch(Asid(2)));
        ops.extend(access_ops(8, 64));
        let stats = run_tenants(&mut mm, ops, 0, u64::MAX);
        assert_eq!(stats.retirements, 1);
        assert!(stats.shootdowns > 0, "retiring a warm tenant storms");
    }

    #[test]
    fn warmup_counts_are_excluded() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(4, 1 << 10));
        // Switch + retire storm entirely inside warmup: the retirement
        // comes before warmup's access quota is exhausted.
        let mut ops: Vec<TenantOp> = vec![TenantOp::Switch(Asid(1))];
        ops.extend(access_ops(32, 64));
        ops.push(TenantOp::Retire(Asid(1)));
        ops.push(TenantOp::Switch(Asid(2)));
        ops.extend(access_ops(64, 64));
        let stats = run_tenants(&mut mm, ops, 64, 32);
        assert_eq!(stats.costs.accesses, 32);
        assert_eq!(stats.retirements, 0, "warmup retirement not reported");
        assert_eq!(stats.per_tenant.len(), 1, "only tenant 2 measured");
        assert_eq!(stats.per_tenant[0].0, Asid(2));
    }

    #[test]
    fn batched_drive_matches_per_access_replay() {
        // The buffered access_batch path must be bit-for-bit the
        // per-access path, down to the ASID TLB's private/global hit
        // split, under switching and retirement churn.
        let ops: Vec<TenantOp> = (0..4000u64)
            .map(|i| {
                if i % 131 == 0 {
                    TenantOp::Retire(Asid((i % 3) as u32))
                } else if i % 37 == 0 {
                    TenantOp::Switch(Asid((i % 5) as u32))
                } else {
                    TenantOp::Access(VirtPage((i * 17) % 500))
                }
            })
            .collect();
        let mut batched = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let stats = run_tenants_batched(&mut batched, ops.iter().copied(), 0, u64::MAX, 64);

        let mut gold = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let mut current = Asid::SINGLE;
        for &op in &ops {
            match op {
                TenantOp::Access(v) => {
                    gold.access(current, v);
                }
                TenantOp::Switch(to) => {
                    if to != current {
                        gold.context_switch(current, to);
                        current = to;
                    }
                }
                TenantOp::Retire(asid) => {
                    gold.retire_tenant(asid);
                }
            }
        }
        assert_eq!(stats.costs, gold.costs());
        assert_eq!(stats.per_tenant, gold.tenant_costs());
        assert_eq!(batched.tlb_stats(), gold.tlb_stats());
        assert_eq!(batched.shootdowns(), gold.shootdowns());
    }

    #[test]
    fn windowed_replay_matches_unwindowed_and_deltas_sum() {
        // Same churny stream as the batched-vs-gold test: the windowed
        // driver must reproduce the unwindowed stats exactly, and the
        // per-window deltas must sum to the per-tenant totals.
        let ops: Vec<TenantOp> = (0..4000u64)
            .map(|i| {
                if i % 131 == 0 {
                    TenantOp::Retire(Asid((i % 3) as u32))
                } else if i % 37 == 0 {
                    TenantOp::Switch(Asid((i % 5) as u32))
                } else {
                    TenantOp::Access(VirtPage((i * 17) % 500))
                }
            })
            .collect();
        let mut plain = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let gold = run_tenants_batched(&mut plain, ops.iter().copied(), 500, 3000, 64);

        let mut windowed = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let mut windows: Vec<(u64, Vec<(Asid, Costs)>)> = Vec::new();
        let stats = run_tenants_batched_windowed(
            &mut windowed,
            ops.iter().copied(),
            500,
            3000,
            64,
            700, // not a multiple of the batch or the measure quota
            |w, deltas| windows.push((w, deltas.to_vec())),
        );
        assert_eq!(stats.costs, gold.costs);
        assert_eq!(stats.per_tenant, gold.per_tenant);
        assert_eq!(stats.switches, gold.switches);
        assert_eq!(stats.shootdowns, gold.shootdowns);

        // ceil(3000 / 700) windows, indexed in order, partial last.
        assert_eq!(windows.len(), 5);
        assert_eq!(
            windows.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let total_accesses: u64 = windows
            .iter()
            .flat_map(|(_, d)| d.iter().map(|(_, c)| c.accesses))
            .sum();
        assert_eq!(total_accesses, 3000);
        // Deltas per tenant sum to that tenant's measured totals for
        // every field (ASIDs that retire mid-run simply stop appearing).
        for (asid, total) in &gold.per_tenant {
            let mut sum = Costs::default();
            for (_, deltas) in &windows {
                if let Some((_, d)) = deltas.iter().find(|(a, _)| a == asid) {
                    sum.ios += d.ios;
                    sum.tlb_misses += d.tlb_misses;
                    sum.decode_misses += d.decode_misses;
                    sum.paging_failures += d.paging_failures;
                    sum.accesses += d.accesses;
                    sum.tlb_hits += d.tlb_hits;
                }
            }
            assert_eq!(sum, *total, "tenant {asid:?} deltas must sum");
        }
    }

    #[test]
    fn windowed_stops_at_stream_end() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(4, 1 << 10));
        let mut seen = 0u64;
        let stats = run_tenants_batched_windowed(
            &mut mm,
            access_ops(50, 64),
            0,
            u64::MAX,
            16,
            20,
            |_, deltas| seen += deltas.iter().map(|(_, c)| c.accesses).sum::<u64>(),
        );
        assert_eq!(stats.costs.accesses, 50);
        assert_eq!(seen, 50, "the partial final window is still reported");
    }

    #[test]
    fn batching_preserves_costs() {
        let ops: Vec<TenantOp> = (0..3000u64)
            .map(|i| {
                if i % 97 == 0 {
                    TenantOp::Switch(Asid((i % 5) as u32))
                } else {
                    TenantOp::Access(VirtPage(i % 400))
                }
            })
            .collect();
        let mut a = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let mut b = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let sa = run_tenants_batched(&mut a, ops.iter().copied(), 500, 2000, 7);
        let sb = run_tenants_batched(&mut b, ops.iter().copied(), 500, 2000, 4096);
        assert_eq!(sa.costs, sb.costs);
        assert_eq!(sa.per_tenant, sb.per_tenant);
    }
}
