//! Single-tenant equivalence suite for the multi-tenancy refactor.
//!
//! The tentpole invariant: threading ASIDs through the stack must not
//! perturb single-tenant behaviour *at all*. An `Asid(0)`-only run
//! through [`TenantArena`] is the identity embedding over the wrapped
//! manager, so its [`Costs`] must be **bit-identical** to driving the
//! manager directly — for every golden-suite manager on every golden
//! trace (the same 7 × 3 grid as `tests/golden_parity.rs`, whose golden
//! table those direct runs are already pinned against). The tagged-TLB
//! manager gets the same treatment against its physical twin
//! `ClassicMm`, and an N-tenant sweep is pinned as a pure function of
//! its seed.

use atp::core::{IcebergAlloc, IcebergParams};
use atp::memmgmt::classic::{ClassicConfig, ClassicMm};
use atp::memmgmt::decoupled::DecoupledConfig;
use atp::memmgmt::{
    latency_classes, DecoupledMm, HybridMm, MemoryManager, PagingOnlyMm, Recorder, SparseConfig,
    SparseDecoupledMm, StageCounters, TenantArena, TenantManager, TenantMm, TenantMmConfig,
    ThpConfig, ThpMm, VirtualOnlyMm,
};
use atp::replacement::PolicyKind;
use atp::sim::{run_tenants, run_tenants_batched};
use atp::types::{Asid, Costs, TenantOp, VirtPage};
use atp::workloads::{Graph500Config, Graph500Trace, Sequential, TenantMix, Zipfian};

const N: usize = 60_000;
const PHYS: u64 = 1 << 12;
const TLB: u64 = 128;

/// Wide enough that every golden trace's pages fit one tenant's span.
const VSPAN: u64 = 1 << 40;

fn traces() -> Vec<(&'static str, Vec<VirtPage>)> {
    vec![
        ("zipf", Zipfian::new(42, 1 << 14, 1.1).take(N).collect()),
        ("graph500", {
            Graph500Trace::generate(&Graph500Config {
                scale: 12,
                edge_factor: 8,
                seed: 7,
                max_accesses: N,
            })
            .iter()
            .collect()
        }),
        ("sequential", Sequential::new(1 << 13).take(N).collect()),
    ]
}

fn managers() -> Vec<Box<dyn MemoryManager>> {
    let params = IcebergParams::derive(PHYS);
    vec![
        Box::new(ClassicMm::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 11,
        })),
        Box::new(VirtualOnlyMm::new(8, TLB, PolicyKind::Lru, 11)),
        Box::new(PagingOnlyMm::new(PHYS, PolicyKind::Lru, 11)),
        Box::new(DecoupledMm::new(
            IcebergAlloc::new(&params, 11),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: TLB,
                tlb_policy: PolicyKind::Lru,
                resident_pages: params.max_resident,
                ram_policy: PolicyKind::Lru,
                seed: 11,
            },
        )),
        Box::new(HybridMm::new(
            IcebergAlloc::new(&params, 13),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: TLB,
                tlb_policy: PolicyKind::Lru,
                resident_pages: params.max_resident,
                ram_policy: PolicyKind::Lru,
                seed: 13,
            },
            4,
        )),
        Box::new(SparseDecoupledMm::new(
            IcebergAlloc::new(&params, 17),
            SparseConfig {
                tlb_value_bits: 64,
                coverage: 64,
                tlb_entries: TLB,
                tlb_policy: PolicyKind::Lru,
                resident_pages: params.max_resident,
                ram_policy: PolicyKind::Lru,
                seed: 17,
            },
        )),
        Box::new(ThpMm::new(ThpConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            policy: PolicyKind::Lru,
            seed: 19,
        })),
    ]
}

fn run_direct(mgr: &mut dyn MemoryManager, trace: &[VirtPage]) -> Costs {
    for &p in trace {
        mgr.access(p);
    }
    mgr.costs()
}

#[test]
fn arena_n1_is_bit_identical_to_every_golden_manager() {
    let traces = traces();
    for mgr_slot in 0..managers().len() {
        for (trace_name, trace) in &traces {
            let mut direct = managers().remove(mgr_slot);
            let name = direct.name();
            let want = run_direct(direct.as_mut(), trace);

            let mut arena = TenantArena::new(managers().remove(mgr_slot), VSPAN);
            for &p in trace {
                arena.access(Asid::SINGLE, p);
            }
            assert_eq!(
                arena.costs(),
                want,
                "{name} on {trace_name}: Asid(0) arena run drifted from the direct run"
            );
            // The whole aggregate is attributed to the one tenant.
            assert_eq!(
                arena.tenant_costs(),
                vec![(Asid::SINGLE, want)],
                "{name} on {trace_name}: per-tenant attribution broke N=1"
            );
        }
    }
}

#[test]
fn arena_n1_through_the_sim_driver_matches_too() {
    // Same invariant one layer up: the context-switch-aware driver on a
    // switchless stream must not perturb costs either.
    let traces = traces();
    for (trace_name, trace) in &traces {
        let mut direct = managers().remove(0);
        let want = run_direct(direct.as_mut(), trace);

        let mut arena = TenantArena::new(managers().remove(0), VSPAN);
        let ops = trace.iter().map(|&p| TenantOp::Access(p));
        let stats = run_tenants(&mut arena, ops, 0, trace.len() as u64);
        assert_eq!(
            stats.costs, want,
            "driver run on {trace_name} drifted from the direct run"
        );
        assert_eq!(stats.switches, 0, "switchless stream recorded switches");
        assert_eq!(stats.shootdowns, 0, "switchless stream recorded shootdowns");
    }
}

#[test]
fn tagged_tlb_manager_n1_matches_classic_bit_for_bit() {
    // TenantMm is ClassicMm with ASID-tagged keys; under one tenant the
    // tags are constant, so LRU recency — and therefore every cost —
    // must coincide.
    for (trace_name, trace) in &traces() {
        let mut classic = ClassicMm::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 11,
        });
        let want = run_direct(&mut classic, trace);

        let mut tagged = TenantMm::new(TenantMmConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 11,
        });
        for &p in trace {
            tagged.access(Asid::SINGLE, p);
        }
        assert_eq!(
            tagged.costs(),
            want,
            "TenantMm N=1 on {trace_name} drifted from ClassicMm"
        );
    }
}

/// Churny multi-tenant op stream: retirement storms, switches, and
/// accesses inside each tenant's span.
fn churn_ops(n: u64, span: u64) -> Vec<TenantOp> {
    (0..n)
        .map(|i| {
            if i % 173 == 0 {
                TenantOp::Retire(Asid((i % 3) as u32))
            } else if i % 29 == 0 {
                TenantOp::Switch(Asid((i % 6) as u32))
            } else {
                TenantOp::Access(VirtPage((i * 31) % span))
            }
        })
        .collect()
}

/// Replays `ops` per-access with no driver in the loop: the golden
/// semantics that every batched drive must reproduce bit-for-bit.
fn replay_per_access<M: TenantManager>(mgr: &mut M, ops: &[TenantOp]) {
    let mut current = Asid::SINGLE;
    for &op in ops {
        match op {
            TenantOp::Access(v) => {
                mgr.access(current, v);
            }
            TenantOp::Switch(to) => {
                if to != current {
                    mgr.context_switch(current, to);
                    current = to;
                }
            }
            TenantOp::Retire(asid) => {
                mgr.retire_tenant(asid);
            }
        }
    }
}

#[test]
fn batched_driver_n1_lanes_match_per_access_replay() {
    // Satellite invariant for the batched retire path: the driver with
    // --batch 1 (every lane group a singleton) and with a wide batch must
    // both be bit-identical to the raw per-access replay, for the tagged
    // manager and the arena alike.
    let ops = churn_ops(6_000, 500);

    // Tagged-TLB manager: also pin the private/global hit split.
    let mut gold = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
    replay_per_access(&mut gold, &ops);
    for batch in [1usize, 16, 4096] {
        let mut mm = TenantMm::new(TenantMmConfig::paper(4, 1 << 9));
        let stats = run_tenants_batched(&mut mm, ops.iter().copied(), 0, u64::MAX, batch);
        assert_eq!(
            stats.costs,
            gold.costs(),
            "TenantMm batch={batch} drifted from per-access replay"
        );
        assert_eq!(stats.per_tenant, gold.tenant_costs(), "batch={batch}");
        assert_eq!(mm.tlb_stats(), gold.tlb_stats(), "batch={batch}");
    }

    // Arena over ClassicMm: the batch path folds cost deltas per chunk.
    let classic = || {
        Box::new(ClassicMm::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 11,
        }))
    };
    let mut gold = TenantArena::new(classic(), 1 << 10);
    replay_per_access(&mut gold, &ops);
    for batch in [1usize, 16, 4096] {
        let mut arena = TenantArena::new(classic(), 1 << 10);
        let stats = run_tenants_batched(&mut arena, ops.iter().copied(), 0, u64::MAX, batch);
        assert_eq!(
            stats.costs,
            gold.costs(),
            "TenantArena batch={batch} drifted from per-access replay"
        );
        assert_eq!(stats.per_tenant, gold.tenant_costs(), "batch={batch}");
    }
}

#[test]
fn batched_tenant_mm_recorder_matches_per_access_replay() {
    // The lane-group retire hands each hit run to the observer in one
    // call: the recorder must end in the per-access replay's state.
    let ops = churn_ops(6_000, 500);
    let recorder = |mm: &TenantMm<Recorder>| {
        let r = mm.observer();
        let latency: Vec<u64> = latency_classes()
            .iter()
            .map(|&c| r.latency_class(c))
            .collect();
        (
            StageCounters {
                batches: 0,
                ..r.counters()
            },
            r.reuse_histogram().to_vec(),
            r.cold_accesses(),
            latency,
            r.accesses(),
        )
    };
    let mut gold = TenantMm::with_observer(TenantMmConfig::paper(4, 1 << 9), Recorder::new());
    replay_per_access(&mut gold, &ops);
    assert!(gold.costs().tlb_hits > 0, "the stream must have hit runs");
    for batch in [1usize, 16, 4096] {
        let mut mm = TenantMm::with_observer(TenantMmConfig::paper(4, 1 << 9), Recorder::new());
        let stats = run_tenants_batched(&mut mm, ops.iter().copied(), 0, u64::MAX, batch);
        assert_eq!(stats.costs, gold.costs(), "batch={batch}");
        assert_eq!(stats.per_tenant, gold.tenant_costs(), "batch={batch}");
        assert_eq!(recorder(&mm), recorder(&gold), "batch={batch}");
    }
}

#[test]
fn ten_thousand_tenant_sweep_is_a_pure_function_of_its_seed() {
    let stats = |_: ()| {
        let mix = TenantMix::new(42, 10_000, 1 << 12, 1.1, 1.01, 64, 0.02);
        let mut mgr = TenantMm::new(TenantMmConfig::paper(8, PHYS));
        run_tenants(&mut mgr, mix.take(200_000), 10_000, 40_000)
    };
    let a = stats(());
    let b = stats(());
    assert_eq!(a, b, "multi-tenant sweep is not deterministic");
    assert!(
        a.tenants_seen() > 50,
        "10k-tenant zipf mix should surface a long tail, saw {}",
        a.tenants_seen()
    );
    assert!(a.switches > 0, "sweep replayed no context switches");
}
