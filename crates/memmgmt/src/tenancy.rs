//! Multi-tenant memory management: per-tenant views over one shared
//! backend.
//!
//! Two ways to serve N tenants from one simulation:
//!
//! * [`TenantArena`] wraps *any* single-address-space [`MemoryManager`]
//!   and embeds each tenant's pages into a disjoint region of the
//!   manager's virtual address space (`asid · vspan + v`). Tenant 0's
//!   region is the identity, so an `Asid(0)`-only run drives the wrapped
//!   manager with bit-for-bit the pre-refactor request stream — the
//!   golden-parity guarantee — while staying on the fused single-probe
//!   hot path (no tagging, no extra probes).
//! * [`TenantMm`] is the dedicated ASID-tagged manager: an [`AsidTlb`]
//!   whose capacity all tenants share, over a shared huge-unit RAM pool.
//!   Context switches flush nothing (tagged entries simply stop
//!   matching); retiring a tenant triggers a targeted `flush_asid`
//!   shootdown storm plus bulk RAM teardown, both visible through the
//!   [`SimObserver`] seam.
//!
//! Both implement [`TenantManager`], the interface `atp-sim`'s
//! context-switch-aware driver runs against.

use crate::observe::{EvictionEvent, NoopObserver, SimObserver, TlbEvent};
use crate::traits::{tally, tally_hits, AccessReport, MemoryManager};
use atp_hash::FxHashMap;
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind, LANES};
use atp_tlb::AsidTlb;
use atp_types::{Asid, Costs, HugePageGeometry, TaggedHugePage, VirtHugePage, VirtPage};

/// A memory-management algorithm serving N tenants over shared physical
/// resources.
pub trait TenantManager {
    /// Services tenant `asid`'s request for `v`.
    fn access(&mut self, asid: Asid, v: VirtPage) -> AccessReport;

    /// A context switch from `from` to `to`. Returns the number of TLB
    /// entries shot down (0 for tagged TLBs — that is the point).
    fn context_switch(&mut self, from: Asid, to: Asid) -> u64;

    /// Tenant `asid` exits: tear down its mappings and TLB entries so
    /// the ASID can be recycled. Returns the number of TLB entries shot
    /// down (the retirement's contribution to the shootdown storm).
    fn retire_tenant(&mut self, asid: Asid) -> u64;

    /// Aggregate event counts across all tenants.
    fn costs(&self) -> Costs;

    /// Per-tenant event counts, ascending by ASID.
    fn tenant_costs(&self) -> Vec<(Asid, Costs)>;

    /// Resets cost counters (aggregate and per-tenant) without touching
    /// TLB/RAM state.
    fn reset_costs(&mut self);

    /// Human-readable description for reports.
    fn name(&self) -> String;

    /// Hook called by batched drivers after each chunk of `_len` accesses.
    fn batch_boundary(&mut self, _len: usize) {}

    /// Services a run of same-tenant requests in order. Semantically
    /// identical to calling [`TenantManager::access`] once per page (the
    /// default does exactly that); batched managers override it to retire
    /// lane groups through wide probes without changing any observable
    /// outcome. Callers that need per-access [`AccessReport`]s must use
    /// `access` directly.
    fn access_batch(&mut self, asid: Asid, vs: &[VirtPage]) {
        for &v in vs {
            self.access(asid, v);
        }
    }
}

/// Address-space interleaving over a single-tenant manager.
///
/// Tenant `a`'s page `v` becomes the wrapped manager's page
/// `a · vspan + v`; all tenants compete for the manager's TLB entries
/// and RAM frames exactly as distinct regions of one big address space
/// would. Context switches and retirements are free: there is no tagged
/// state to flush, cold regions simply age out of the caches.
#[derive(Debug)]
pub struct TenantArena<M: MemoryManager> {
    mgr: M,
    vspan: u64,
    per_tenant: FxHashMap<u32, Costs>,
    /// Reused staging buffer for batched accesses (globalized pages).
    scratch: Vec<VirtPage>,
}

impl<M: MemoryManager> TenantArena<M> {
    /// Wraps `mgr`, giving each tenant `vspan` virtual pages.
    ///
    /// # Panics
    /// Panics if `vspan == 0`.
    pub fn new(mgr: M, vspan: u64) -> Self {
        assert!(vspan > 0, "tenant virtual span must be nonzero");
        Self {
            mgr,
            vspan,
            per_tenant: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &M {
        &self.mgr
    }

    /// The per-tenant virtual span.
    pub fn vspan(&self) -> u64 {
        self.vspan
    }
}

impl<M: MemoryManager> TenantManager for TenantArena<M> {
    fn access(&mut self, asid: Asid, v: VirtPage) -> AccessReport {
        assert!(
            v.0 < self.vspan,
            "page {v} outside tenant span {}",
            self.vspan
        );
        let global = VirtPage((asid.0 as u64) * self.vspan + v.0);
        let report = self.mgr.access(global);
        tally(self.per_tenant.entry(asid.0).or_default(), report);
        report
    }

    fn context_switch(&mut self, _from: Asid, _to: Asid) -> u64 {
        0
    }

    fn retire_tenant(&mut self, _asid: Asid) -> u64 {
        0
    }

    fn costs(&self) -> Costs {
        self.mgr.costs()
    }

    fn tenant_costs(&self) -> Vec<(Asid, Costs)> {
        let mut out: Vec<(Asid, Costs)> = self
            .per_tenant
            .iter()
            .map(|(&a, &c)| (Asid(a), c))
            .collect();
        out.sort_by_key(|(a, _)| *a);
        out
    }

    fn reset_costs(&mut self) {
        self.mgr.reset_costs();
        self.per_tenant.clear();
    }

    fn name(&self) -> String {
        format!("arena({})", self.mgr.name())
    }

    fn batch_boundary(&mut self, len: usize) {
        self.mgr.batch_boundary(len);
    }

    // One globalize pass, then the wrapped manager's own batched fast
    // path. The per-tenant tally folds in the manager's cost delta —
    // equal to the sum of the individual access reports, since `costs()`
    // is the per-access tally by contract — so the outcome matches the
    // per-access path bit-for-bit.
    fn access_batch(&mut self, asid: Asid, vs: &[VirtPage]) {
        let before = self.mgr.costs();
        self.scratch.clear();
        for &v in vs {
            assert!(
                v.0 < self.vspan,
                "page {v} outside tenant span {}",
                self.vspan
            );
            self.scratch
                .push(VirtPage((asid.0 as u64) * self.vspan + v.0));
        }
        self.mgr.access_batch(&self.scratch);
        let after = self.mgr.costs();
        let t = self.per_tenant.entry(asid.0).or_default();
        t.ios += after.ios - before.ios;
        t.tlb_misses += after.tlb_misses - before.tlb_misses;
        t.decode_misses += after.decode_misses - before.decode_misses;
        t.paging_failures += after.paging_failures - before.paging_failures;
        t.accesses += after.accesses - before.accesses;
        t.tlb_hits += after.tlb_hits - before.tlb_hits;
    }
}

/// Configuration for [`TenantMm`].
#[derive(Clone, Copy, Debug)]
pub struct TenantMmConfig {
    /// Huge-page size `h` in base pages (power of two).
    pub huge_pages: u64,
    /// Shared physical memory size in base pages.
    pub phys_pages: u64,
    /// Shared TLB entries ℓ.
    pub tlb_entries: u64,
    /// TLB replacement policy.
    pub tlb_policy: PolicyKind,
    /// RAM replacement policy (over huge-page units).
    pub ram_policy: PolicyKind,
    /// Seed for randomized policies.
    pub seed: u64,
}

impl TenantMmConfig {
    /// Defaults mirroring [`crate::classic::ClassicConfig::paper`]:
    /// LRU everywhere, 1536 TLB entries.
    pub fn paper(huge_pages: u64, phys_pages: u64) -> Self {
        Self {
            huge_pages,
            phys_pages,
            tlb_entries: 1536,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 0,
        }
    }
}

/// The dedicated ASID-tagged multi-tenant manager.
///
/// RAM-first like the classic simulator: a fault brings the whole huge
/// unit in (`h` IOs) and may evict *another tenant's* unit, whose TLB
/// entry is then shot down. The TLB is a shared [`AsidTlb`]: lookups
/// match private-then-global, capacity pressure crosses tenant
/// boundaries, and context switches flush nothing.
#[derive(Debug)]
pub struct TenantMm<O: SimObserver = NoopObserver> {
    geom: HugePageGeometry,
    tlb: AsidTlb<(), AnyPolicy>,
    ram: CacheSim<TaggedHugePage, AnyPolicy>,
    h: u64,
    observer: O,
    costs: Costs,
    per_tenant: FxHashMap<u32, Costs>,
    switches: u64,
    retirements: u64,
    shootdowns: u64,
}

impl TenantMm<NoopObserver> {
    /// Builds an unobserved manager.
    pub fn new(cfg: TenantMmConfig) -> Self {
        Self::with_observer(cfg, NoopObserver)
    }
}

impl<O: SimObserver> TenantMm<O> {
    /// Builds the manager with an explicit observer.
    ///
    /// # Panics
    /// Panics if `huge_pages` is not a power of two or exceeds
    /// `phys_pages`.
    pub fn with_observer(cfg: TenantMmConfig, observer: O) -> Self {
        // atp-lint: allow(unwrap-policy, reason = "constructor contract: documented # Panics on invalid (non-power-of-two) huge-page config")
        let geom = HugePageGeometry::new(cfg.huge_pages).expect("h must be a power of two");
        assert!(
            cfg.huge_pages <= cfg.phys_pages,
            "huge page larger than physical memory"
        );
        let ram_units = (cfg.phys_pages / cfg.huge_pages).max(1) as usize;
        Self {
            geom,
            tlb: AsidTlb::new(cfg.tlb_entries, cfg.tlb_policy, cfg.seed),
            ram: CacheSim::new(
                ram_units,
                AnyPolicy::new(cfg.ram_policy, ram_units, cfg.seed ^ 1),
            ),
            h: cfg.huge_pages,
            observer,
            costs: Costs::default(),
            per_tenant: FxHashMap::default(),
            switches: 0,
            retirements: 0,
            shootdowns: 0,
        }
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the manager, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The shared TLB's per-lookup counters.
    pub fn tlb_stats(&self) -> atp_tlb::AsidTlbStats {
        self.tlb.stats()
    }

    /// Context switches seen.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Tenants retired.
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// TLB entries shot down so far (cross-tenant evictions plus
    /// retirement flushes).
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }
}

impl<O: SimObserver> TenantManager for TenantMm<O> {
    fn access(&mut self, asid: Asid, v: VirtPage) -> AccessReport {
        let u = TaggedHugePage::new(asid, self.geom.huge_of(v));
        let mut report = AccessReport::default();

        // Residency first (classic RAM-first order): a fault moves the
        // whole unit at h IOs and may evict any tenant's unit.
        match self.ram.access(u) {
            AccessResult::Hit => {}
            AccessResult::Miss { evicted } => {
                report.ios = self.h;
                if let Some(old) = evicted {
                    self.observer.on_eviction(EvictionEvent {
                        unit: old.huge.0,
                        pages: self.h,
                    });
                    if self.tlb.invalidate(old.asid, old.huge).is_some() {
                        self.observer.on_tlb_event(TlbEvent::Shootdown);
                        self.shootdowns += 1;
                    }
                }
            }
        }

        // One combined TLB touch-or-fill after residency.
        let hit = self.tlb.access_or_fill(asid, u.huge, || ());
        if !hit {
            self.observer.on_tlb_event(TlbEvent::Fill);
        }
        report.tlb_miss = !hit;

        self.observer.on_tlb_event(if report.tlb_miss {
            TlbEvent::Miss
        } else {
            TlbEvent::Hit
        });
        tally(&mut self.costs, report);
        tally(self.per_tenant.entry(asid.0).or_default(), report);
        self.observer.on_access(v, report);
        report
    }

    fn context_switch(&mut self, _from: Asid, _to: Asid) -> u64 {
        self.switches += 1;
        // Tagged TLB: nothing is flushed on a switch.
        0
    }

    fn retire_tenant(&mut self, asid: Asid) -> u64 {
        self.retirements += 1;
        self.ram.remove_matching(|k| k.asid == asid);
        let flushed = self.tlb.flush_asid(asid);
        for _ in 0..flushed {
            self.observer.on_tlb_event(TlbEvent::Shootdown);
        }
        self.shootdowns += flushed;
        flushed
    }

    fn costs(&self) -> Costs {
        self.costs
    }

    fn tenant_costs(&self) -> Vec<(Asid, Costs)> {
        let mut out: Vec<(Asid, Costs)> = self
            .per_tenant
            .iter()
            .map(|(&a, &c)| (Asid(a), c))
            .collect();
        out.sort_by_key(|(a, _)| *a);
        out
    }

    fn reset_costs(&mut self) {
        self.costs = Costs::default();
        self.per_tenant.clear();
    }

    fn name(&self) -> String {
        format!("tenant-mm(h={}, tlb={})", self.h, self.tlb.capacity())
    }

    fn batch_boundary(&mut self, len: usize) {
        self.observer.on_batch_boundary(len);
    }

    // Lane-group fast path: resolve the group in the shared RAM (tagged
    // keys) and the ASID TLB (private + global keys), then retire the
    // leading run that hit *both* — a pure hit takes no IO, evicts
    // nothing, shoots down nothing, and emits no stage events, so each
    // structure taking its hits in lane order, then the run's epilogue
    // (one tally each, one `on_hit_run`), is bit-for-bit the sequential
    // outcome. Lanes from the first non-hit replay through
    // [`TenantManager::access`].
    fn access_batch(&mut self, asid: Asid, vs: &[VirtPage]) {
        for sub in vs.chunks(LANES) {
            let n = sub.len();
            let mut huges = [VirtHugePage(0); LANES];
            let mut ram_keys = [TaggedHugePage::global(VirtHugePage(0)); LANES];
            for i in 0..n {
                huges[i] = self.geom.huge_of(sub[i]);
                ram_keys[i] = TaggedHugePage::new(asid, huges[i]);
            }
            // The TLB only needs resolving where RAM hits, so its run is
            // the shorter one.
            let mut ram = self.ram.resolve_hit_run(&ram_keys[..n]);
            let tlb = self.tlb.resolve_hit_run(asid, &huges[..ram.len()]);
            let run = tlb.len();
            ram.truncate(run);
            self.ram.retire_hit_run(&ram);
            self.tlb.retire_hit_run(&tlb);
            if run > 0 {
                tally_hits(&mut self.costs, run as u64);
                tally_hits(self.per_tenant.entry(asid.0).or_default(), run as u64);
                self.observer.on_hit_run(&sub[..run]);
            }
            for &v in &sub[run..] {
                self.access(asid, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{ClassicConfig, ClassicMm};

    fn classic(seed: u64) -> ClassicMm {
        ClassicMm::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: 1 << 10,
            tlb_entries: 32,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed,
        })
    }

    #[test]
    fn arena_single_tenant_is_identity() {
        // Asid(0) through the arena must match the bare manager
        // access-for-access.
        let mut arena = TenantArena::new(classic(3), 1 << 16);
        let mut bare = classic(3);
        for i in 0..2000u64 {
            let v = VirtPage((i * 37) % 600);
            assert_eq!(arena.access(Asid::SINGLE, v), bare.access(v));
        }
        assert_eq!(arena.costs(), bare.costs());
        let per = arena.tenant_costs();
        assert_eq!(per.len(), 1);
        assert_eq!(per[0], (Asid::SINGLE, bare.costs()));
    }

    #[test]
    fn arena_tenants_contend_for_shared_state() {
        let mut arena = TenantArena::new(classic(3), 1 << 16);
        // Tenant 1 warms a working set, then tenant 2 streams over its
        // own region, evicting tenant 1's pages from the shared RAM.
        for v in 0..512u64 {
            arena.access(Asid(1), VirtPage(v));
        }
        for v in 0..2048u64 {
            arena.access(Asid(2), VirtPage(v));
        }
        let rewarm: u64 = (0..512u64)
            .map(|v| arena.access(Asid(1), VirtPage(v)).ios)
            .sum();
        assert!(rewarm > 0, "tenant 2's stream must displace tenant 1");
        assert_eq!(arena.tenant_costs().len(), 2);
    }

    #[test]
    fn tenant_mm_switch_flushes_nothing() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(8, 1 << 10));
        for v in 0..64u64 {
            mm.access(Asid(1), VirtPage(v));
        }
        assert_eq!(mm.context_switch(Asid(1), Asid(2)), 0);
        mm.access(Asid(2), VirtPage(0));
        assert_eq!(mm.context_switch(Asid(2), Asid(1)), 0);
        // Tenant 1's entries survived both switches: all hits.
        let misses_before = mm.costs().tlb_misses;
        for v in 0..64u64 {
            mm.access(Asid(1), VirtPage(v));
        }
        assert_eq!(mm.costs().tlb_misses, misses_before);
        assert_eq!(mm.switches(), 2);
    }

    #[test]
    fn tenant_mm_retirement_storms() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(8, 1 << 10));
        for v in 0..64u64 {
            mm.access(Asid(1), VirtPage(v));
            mm.access(Asid(2), VirtPage(v));
        }
        let storm = mm.retire_tenant(Asid(1));
        assert!(storm > 0, "retirement must shoot down tenant 1's entries");
        assert_eq!(mm.shootdowns(), storm);
        assert_eq!(mm.retirements(), 1);
        // Tenant 1 is cold again; tenant 2 is untouched.
        assert!(mm.access(Asid(1), VirtPage(0)).tlb_miss);
        assert!(!mm.access(Asid(2), VirtPage(0)).tlb_miss);
    }

    #[test]
    fn tenant_mm_cross_tenant_eviction_shoots_down() {
        // RAM of 4 units: tenant 2's fills evict tenant 1's units and
        // shoot down their TLB entries.
        let mut mm = TenantMm::new(TenantMmConfig {
            huge_pages: 1,
            phys_pages: 4,
            tlb_entries: 64,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 0,
        });
        for v in 0..4u64 {
            mm.access(Asid(1), VirtPage(v));
        }
        for v in 0..4u64 {
            mm.access(Asid(2), VirtPage(v));
        }
        assert_eq!(mm.shootdowns(), 4, "each cross-tenant eviction shoots down");
    }

    #[test]
    fn tenant_mm_per_tenant_costs_partition_aggregate() {
        let mut mm = TenantMm::new(TenantMmConfig::paper(8, 1 << 10));
        for i in 0..300u64 {
            mm.access(Asid((i % 3) as u32 + 1), VirtPage(i % 97));
        }
        let agg = mm.costs();
        let per = mm.tenant_costs();
        assert_eq!(per.len(), 3);
        assert_eq!(
            per.iter().map(|(_, c)| c.accesses).sum::<u64>(),
            agg.accesses
        );
        assert_eq!(per.iter().map(|(_, c)| c.ios).sum::<u64>(), agg.ios);
        assert_eq!(
            per.iter().map(|(_, c)| c.tlb_misses).sum::<u64>(),
            agg.tlb_misses
        );
    }
}
