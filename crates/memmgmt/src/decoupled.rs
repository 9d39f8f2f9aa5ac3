//! `Z`: the decoupled memory-management algorithm of Theorem 4.
//!
//! Construction (following the proof): take the TLB-replacement behaviour of
//! `X` (here: the TLB's own policy over the size-`hmax` huge-page stream),
//! the RAM-replacement behaviour of `Y` (the page-granular cache policy with
//! `(1−δ)P` capacity), and glue them with a huge-page decoupling scheme
//! `D`:
//!
//! * a TLB miss installs ψ(u) — the scheme's current encoding for `u` — at
//!   cost ε;
//! * a RAM miss fetches exactly **one** base page (cost 1 — no page-fault
//!   amplification), the allocator assigns `φ(p)`, and any TLB-resident
//!   value whose huge page covers `p` (or the evicted page) is updated in
//!   place, free of charge;
//! * a **paging failure** (the allocator has no legal slot) is serviced
//!   out-of-band: the page is brought in anyway at cost `1 + ε` per access
//!   (IO + decoding miss) and receives no TLB encoding, until `Y` evicts it.
//!
//! The result enjoys eq. (7): `C(Z,σ) ≤ C_TLB(X,σ) + C_IO(Y,σ) + n/poly(P)`.
//!
//! In pipeline terms, `Z` is the canonical three-stage manager: probe first
//! (hardware order), page-granular residency with free in-place TLB value
//! maintenance, then a ψ(u) fill on the probe miss.

use crate::observe::{EvictionEvent, SimObserver, TlbEvent};
use crate::pipeline::{Pipeline, Stages, TlbProbe};
use crate::traits::AccessReport;
use atp_core::{DecouplingScheme, RamAllocator, SlotCode, TlbValue};
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind};
use atp_tlb::Tlb;
use atp_types::VirtPage;

/// Configuration for [`DecoupledMm`].
#[derive(Clone, Copy, Debug)]
pub struct DecoupledConfig {
    /// TLB value width `w` in bits.
    pub tlb_value_bits: u32,
    /// TLB entries ℓ.
    pub tlb_entries: u64,
    /// TLB replacement policy (the `X` role).
    pub tlb_policy: PolicyKind,
    /// Page-granular resident-set capacity `m = ⌊(1−δ)P⌋` (the `Y` role).
    pub resident_pages: u64,
    /// RAM replacement policy (the `Y` role).
    pub ram_policy: PolicyKind,
    /// Seed for randomized policies.
    pub seed: u64,
}

/// Stage state of the decoupled manager `Z`.
#[derive(Debug)]
pub struct DecoupledStages<A: RamAllocator> {
    pub(crate) scheme: DecouplingScheme<A>,
    pub(crate) tlb: Tlb<TlbValue, AnyPolicy>,
    pub(crate) ram: CacheSim<u64, AnyPolicy>,
}

impl<A: RamAllocator> DecoupledStages<A> {
    /// Builds the stages from an allocator and configuration.
    ///
    /// # Panics
    /// Panics if `resident_pages` exceeds the allocator's physical memory
    /// (the resource-augmentation contract `m ≤ (1−δ)P` would be violated).
    pub fn new(alloc: A, cfg: DecoupledConfig) -> Self {
        assert!(
            cfg.resident_pages <= alloc.phys_pages(),
            "resident budget m={} exceeds P={}",
            cfg.resident_pages,
            alloc.phys_pages()
        );
        let cap = cfg.resident_pages as usize;
        Self {
            scheme: DecouplingScheme::new(alloc, cfg.tlb_value_bits),
            tlb: Tlb::new(cfg.tlb_entries, cfg.tlb_policy, cfg.seed),
            ram: CacheSim::new(cap, AnyPolicy::new(cfg.ram_policy, cap, cfg.seed ^ 0xF00D)),
        }
    }

    /// The decoupling scheme (for hmax, bits, failure stats…).
    pub fn scheme(&self) -> &DecouplingScheme<A> {
        &self.scheme
    }

    /// Effective TLB coverage per entry, in base pages.
    pub fn coverage(&self) -> u64 {
        self.scheme.hmax()
    }
}

impl<A: RamAllocator> Stages for DecoupledStages<A> {
    fn tlb_stage<O: SimObserver>(&mut self, addr: VirtPage, _obs: &mut O) -> TlbProbe {
        // Lookup first (hardware order); the fill happens in the translate
        // stage so the installed ψ(u) is fresh.
        let u = self.scheme.geometry().huge_of(addr);
        if self.tlb.lookup(u).is_some() {
            TlbProbe::Hit
        } else {
            TlbProbe::Miss
        }
    }

    fn residency_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        _probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        let geom = self.scheme.geometry();
        let u = geom.huge_of(addr);
        // RAM step: Y's policy over base pages.
        match self.ram.access(addr.0) {
            AccessResult::Hit => {
                if self.scheme.is_failed(addr) {
                    // Theorem 4 failure path: 1 + ε per access to a failed
                    // page (temporary IO + decoding miss), no TLB encoding.
                    report.ios += 1;
                    report.decode_miss = true;
                    report.paging_failure = true;
                }
            }
            AccessResult::Miss { evicted } => {
                report.ios += 1; // exactly one base page — no amplification
                if let Some(ev) = evicted {
                    let ev_page = VirtPage(ev);
                    self.scheme.ram_evict(ev_page);
                    obs.on_eviction(EvictionEvent { unit: ev, pages: 1 });
                    // Clear the evicted page's code in any TLB-resident value.
                    let eu = geom.huge_of(ev_page);
                    let idx = self.scheme.index_within(ev_page);
                    self.tlb.update(eu, |val| val.set(idx, SlotCode::ABSENT));
                }
                match self.scheme.ram_insert(addr) {
                    Ok(placed) => {
                        let idx = self.scheme.index_within(addr);
                        self.tlb.update(u, |val| val.set(idx, placed.code));
                    }
                    Err(_) => {
                        // Placement failed: the 1 IO above covers the
                        // temporary fetch; the ensuing decoding miss costs ε.
                        report.decode_miss = true;
                        report.paging_failure = true;
                    }
                }
            }
        }
    }

    fn translate_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        probe: TlbProbe,
        _report: &mut AccessReport,
        obs: &mut O,
    ) {
        let u = self.scheme.geometry().huge_of(addr);
        if probe == TlbProbe::Miss {
            self.tlb.insert(u, self.scheme.psi(u));
            obs.on_tlb_event(TlbEvent::Fill);
        }

        // Eq. (4) invariant: a TLB-resident value must decode the page we
        // just serviced, unless the page is in the failure set.
        debug_assert!(
            self.scheme.is_failed(addr)
                || self
                    .tlb
                    .peek(u)
                    .is_none_or(|val| self.scheme.decode(addr, val) == self.scheme.frame_of(addr)),
            "decode invariant violated for {addr:?}"
        );
    }

    fn name(&self) -> String {
        format!(
            "Z(hmax={}, bits={}, m={})",
            self.scheme.hmax(),
            self.scheme.bits_per_code(),
            self.ram.capacity()
        )
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        let geom = self.scheme.geometry();
        for &a in addrs {
            self.tlb.touch(geom.huge_of(a));
            self.ram.touch(&a.0);
        }
    }
}

/// The decoupled memory manager `Z`.
pub type DecoupledMm<A, O = crate::observe::NoopObserver> = Pipeline<DecoupledStages<A>, O>;

impl<A: RamAllocator> DecoupledMm<A> {
    /// Builds `Z` from an allocator and configuration (unobserved).
    ///
    /// # Panics
    /// Panics if `resident_pages` exceeds the allocator's physical memory.
    pub fn new(alloc: A, cfg: DecoupledConfig) -> Self {
        Pipeline::from_stages(DecoupledStages::new(alloc, cfg))
    }
}

impl<A: RamAllocator, O: SimObserver> DecoupledMm<A, O> {
    /// The decoupling scheme (for hmax, bits, failure stats…).
    pub fn scheme(&self) -> &DecouplingScheme<A> {
        self.stages().scheme()
    }

    /// Effective TLB coverage per entry, in base pages.
    pub fn coverage(&self) -> u64 {
        self.stages().coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::only::{PagingOnlyMm, VirtualOnlyMm};
    use crate::traits::MemoryManager;
    use atp_core::{IcebergAlloc, IcebergParams};
    use atp_hash::CounterRng;

    fn iceberg_z(seed: u64) -> DecoupledMm<IcebergAlloc> {
        // P = 2^14 pages; theory-derived geometry.
        let params = IcebergParams::derive(1 << 14);
        DecoupledMm::new(
            IcebergAlloc::new(&params, seed),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 64,
                tlb_policy: PolicyKind::Lru,
                resident_pages: params.max_resident,
                ram_policy: PolicyKind::Lru,
                seed,
            },
        )
    }

    #[test]
    fn no_page_fault_amplification() {
        let mut z = iceberg_z(1);
        let h = z.coverage();
        assert!(h >= 8, "iceberg at 2^14 should give hmax >= 8, got {h}");
        // Touch one page per huge page: each fault costs exactly 1 IO.
        for i in 0..100u64 {
            let r = z.access(VirtPage(i * h));
            assert_eq!(r.ios, 1, "decoupling must not amplify IOs");
        }
    }

    #[test]
    fn tlb_coverage_matches_huge_pages() {
        let mut z = iceberg_z(2);
        let h = z.coverage();
        // Sequential scan: one TLB miss per huge page, like virtual huge
        // pages — despite page-granular RAM.
        let n = 64 * h;
        for p in 0..n {
            z.access(VirtPage(p));
        }
        assert_eq!(z.costs().tlb_misses, 64);
        assert_eq!(z.costs().ios, n, "every page faults exactly once");
    }

    #[test]
    fn matches_x_plus_y_exactly_without_failures() {
        // Theorem 4's accounting is exact when no paging failures occur:
        // Z's TLB misses equal X's and Z's IOs equal Y's on any trace.
        let params = IcebergParams::derive(1 << 14);
        let mut z = iceberg_z(3);
        let h = z.coverage();
        let mut x = VirtualOnlyMm::new(h, 64, PolicyKind::Lru, 3);
        let mut y = PagingOnlyMm::new(params.max_resident, PolicyKind::Lru, 3);
        let mut rng = CounterRng::new(99, 0);
        for _ in 0..60_000 {
            // Skewed trace over 4× the resident budget.
            let span = params.max_resident * 4;
            let r = rng.next_f64();
            let p = ((r * r) * span as f64) as u64;
            z.access(VirtPage(p));
            x.access(VirtPage(p));
            y.access(VirtPage(p));
        }
        assert_eq!(z.costs().paging_failures, 0, "theory params: no failures");
        assert_eq!(z.costs().tlb_misses, x.costs().tlb_misses);
        assert_eq!(z.costs().ios, y.costs().ios);
    }

    #[test]
    fn failure_path_costs_one_plus_epsilon() {
        // Degenerate allocator (1 bin, 1+1 slots) with a RAM budget of 3
        // pages: the third resident page must fail placement.
        let alloc = IcebergAlloc::with_geometry(1, 1, 1, 7);
        let mut z = DecoupledMm::new(
            alloc,
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 8,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 2, // within P
                ram_policy: PolicyKind::Lru,
                seed: 7,
            },
        );
        // With m=2 ≤ P=2 there is never a failure...
        z.access(VirtPage(0));
        z.access(VirtPage(1));
        assert_eq!(z.costs().paging_failures, 0);

        // ...but a same-bin collision can still fail: force it by filling
        // the single bin and bringing in a third page after eviction leaves
        // the *other* page's slot occupied. Instead, rebuild with m=2 but an
        // allocator of P=4 where both pages hash to one bin: use m=3 > slots
        // of any single bin. Simpler: m = 3 with bins such that 3 pages can
        // collide. Use 3 bins × (1,1) and find colliding pages.
        let alloc = IcebergAlloc::with_geometry(3, 1, 1, 13);
        let mut z = DecoupledMm::new(
            alloc,
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 8,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 6,
                ram_policy: PolicyKind::Lru,
                seed: 13,
            },
        );
        // Touch many distinct pages; with 6 resident slots over 6 physical
        // slots across 3 bins, collisions are inevitable.
        let mut failures = 0u64;
        for p in 0..6u64 {
            let r = z.access(VirtPage(p));
            failures += u64::from(r.paging_failure);
            if r.paging_failure {
                assert_eq!(r.ios, 1);
                assert!(r.decode_miss);
            }
        }
        assert!(failures > 0, "collision-forced failure expected");
        // Accesses to a failed page keep costing 1 + ε while it is resident.
        let c_before = z.costs();
        for p in 0..6u64 {
            z.access(VirtPage(p));
        }
        let c_after = z.costs();
        assert_eq!(
            c_after.paging_failures - c_before.paging_failures,
            c_after.ios - c_before.ios,
            "every failed access re-pays its IO"
        );
    }

    #[test]
    fn eviction_keeps_tlb_values_fresh() {
        // A huge page stays in the TLB while its constituents churn through
        // RAM; every access must decode correctly (debug_assert enforces it).
        let mut z = iceberg_z(5);
        let h = z.coverage();
        let m = z.stages().ram.capacity() as u64;
        // Working set larger than RAM to force evictions, all within few
        // huge pages to keep TLB entries alive.
        let span = m + h * 4;
        let mut rng = CounterRng::new(123, 0);
        for _ in 0..50_000 {
            let p = rng.next_below(span);
            z.access(VirtPage(p));
        }
        z.scheme().check_invariants();
        assert!(z.costs().ios > 0);
    }

    #[test]
    fn costs_identity_holds() {
        use atp_types::CostModel;
        let mut z = iceberg_z(6);
        let mut rng = CounterRng::new(7, 7);
        for _ in 0..20_000 {
            z.access(VirtPage(rng.next_below(1 << 15)));
        }
        let c = z.costs();
        let m = CostModel::new(0.25);
        let total = c.total(m);
        let expect = c.ios as f64 + 0.25 * (c.tlb_misses as f64) + 0.25 * (c.decode_misses as f64);
        assert!((total - expect).abs() < 1e-9);
        assert_eq!(c.accesses, 20_000);
    }

    #[test]
    fn recorder_matches_costs() {
        use crate::observe::Recorder;
        let params = IcebergParams::derive(1 << 14);
        let mut z: DecoupledMm<IcebergAlloc, Recorder> = Pipeline::with_observer(
            DecoupledStages::new(
                IcebergAlloc::new(&params, 9),
                DecoupledConfig {
                    tlb_value_bits: 64,
                    tlb_entries: 64,
                    tlb_policy: PolicyKind::Lru,
                    resident_pages: params.max_resident,
                    ram_policy: PolicyKind::Lru,
                    seed: 9,
                },
            ),
            Recorder::new(),
        );
        let mut rng = CounterRng::new(11, 0);
        for _ in 0..30_000 {
            z.access(VirtPage(rng.next_below(1 << 15)));
        }
        let costs = z.costs();
        let obs = z.observer().counters();
        assert_eq!(obs.tlb_hits, costs.tlb_hits);
        assert_eq!(obs.tlb_misses, costs.tlb_misses);
        assert_eq!(obs.tlb_fills, costs.tlb_misses, "every Z miss fills ψ(u)");
        assert_eq!(obs.ios, costs.ios);
        assert_eq!(obs.decode_misses, costs.decode_misses);
        assert_eq!(obs.residency_hits + obs.faults, costs.accesses);
    }
}
