//! Integration tests for the multicore extension: per-core TLBs and
//! cross-core shootdowns.

use atp::replacement::PolicyKind;
use atp::sim::{run_multicore, MulticoreConfig};
use atp::types::VirtPage;
use atp::workloads::{UniformRandom, Zipfian};

fn cfg(cores: usize) -> MulticoreConfig {
    MulticoreConfig {
        cores,
        huge_pages: 4,
        phys_pages: 512,
        tlb_entries: 32,
        policy: PolicyKind::Lru,
        seed: 3,
    }
}

#[test]
fn shootdown_conservation() {
    let traces: Vec<Vec<VirtPage>> = (0..4)
        .map(|i| UniformRandom::new(i, 4096).take(8_000).collect())
        .collect();
    let r = run_multicore(&cfg(4), &traces);
    // Each eviction broadcast can invalidate at most one entry per core.
    assert!(r.shootdown_invalidations <= r.shootdown_events * 4);
    // Every shootdown event corresponds to a RAM eviction, and evictions
    // are bounded by total IOs/h.
    let total = r.total_costs();
    assert!(r.shootdown_events <= total.ios / 4);
    // TLB accounting is exact per core.
    for c in &r.per_core {
        assert_eq!(c.costs.tlb_hits + c.costs.tlb_misses, c.costs.accesses);
    }
}

#[test]
fn shared_hot_set_causes_cross_core_invalidations() {
    // All cores hammer the same small hot set plus private cold spill:
    // evictions of shared entries invalidate other cores' TLBs.
    let traces: Vec<Vec<VirtPage>> = (0..4)
        .map(|i| Zipfian::new(i, 4096, 1.0).take(8_000).collect())
        .collect();
    let r = run_multicore(&cfg(4), &traces);
    assert!(
        r.shootdown_invalidations > 0,
        "shared working sets must produce cross-core shootdowns"
    );
}

#[test]
fn partitioned_private_tlbs_lose_to_a_shared_one() {
    // The §1 trend: when threads split a fixed TLB budget into private
    // slices, shared hot pages must be cached once *per core*. Compare a
    // single core with a 32-entry TLB against 4 cores with 8 entries each
    // (equal aggregate capacity) on a partitioned Zipf stream. RAM is
    // sized to the full universe so no evictions/shootdowns occur and the
    // comparison is deterministic.
    let mk = |cores: usize, tlb: u64| MulticoreConfig {
        cores,
        huge_pages: 4,
        phys_pages: 8192, // 2048 units ≥ universe: no evictions
        tlb_entries: tlb,
        policy: PolicyKind::Lru,
        seed: 3,
    };
    let whole: Vec<VirtPage> = Zipfian::new(9, 2048, 1.0).take(16_000).collect();
    let single = run_multicore(&mk(1, 32), std::slice::from_ref(&whole));
    let quarters: Vec<Vec<VirtPage>> = whole.chunks(4_000).map(|c| c.to_vec()).collect();
    let multi = run_multicore(&mk(4, 8), &quarters);
    assert_eq!(multi.shootdown_events, 0, "setup must be eviction-free");
    assert!(
        multi.total_costs().tlb_misses > single.total_costs().tlb_misses,
        "private slices {} should miss more than the shared TLB {}",
        multi.total_costs().tlb_misses,
        single.total_costs().tlb_misses
    );
}
