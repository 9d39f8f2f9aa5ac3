//! Physically contiguous huge pages: the Section 6 simulator.
//!
//! With huge-page size `h`, both the TLB and RAM operate on huge-page units:
//! a TLB entry translates `h` virtually *and physically* contiguous base
//! pages, and "each page fault moves `h` pages between RAM and secondary
//! memory, at a cost of `h` IOs" — page-fault amplification, the first of
//! the paper's three costs of physical huge pages. RAM holds `P/h` huge-page
//! units (reduced RAM utilization: a unit is resident in full even if only
//! one constituent is hot).
//!
//! `h = 1` recovers classic paging with no huge pages; sweeping
//! `h ∈ {1, 2, 4, …, 1024}` regenerates Figure 1.

use crate::observe::{EvictionEvent, SimObserver, TlbEvent};
use crate::pipeline::{Pipeline, Stages, TlbProbe};
use crate::traits::AccessReport;
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind, LANES};
use atp_tlb::Tlb;
use atp_types::{HugePageGeometry, VirtHugePage, VirtPage};

/// Configuration for [`ClassicMm`].
#[derive(Clone, Copy, Debug)]
pub struct ClassicConfig {
    /// Huge-page size `h` in base pages (power of two).
    pub huge_pages: u64,
    /// Physical memory size in base pages.
    pub phys_pages: u64,
    /// TLB entries ℓ.
    pub tlb_entries: u64,
    /// TLB replacement policy.
    pub tlb_policy: PolicyKind,
    /// RAM replacement policy (over huge-page units).
    pub ram_policy: PolicyKind,
    /// Seed for randomized policies.
    pub seed: u64,
}

impl ClassicConfig {
    /// The paper's Section-6 defaults: LRU everywhere, 1536 TLB entries.
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

/// Stage state of the classic physical-huge-page manager.
#[derive(Debug)]
pub struct ClassicStages {
    geom: HugePageGeometry,
    tlb: Tlb<(), AnyPolicy>,
    ram: CacheSim<u64, AnyPolicy>,
    h: u64,
}

impl ClassicStages {
    /// Builds the stages.
    ///
    /// # Panics
    /// Panics if `huge_pages` is not a power of two or exceeds `phys_pages`.
    pub fn new(cfg: ClassicConfig) -> Self {
        // atp-lint: allow(unwrap-policy, reason = "constructor contract: documented # Panics on invalid (non-power-of-two) huge-page config")
        let geom = HugePageGeometry::new(cfg.huge_pages).expect("h must be a power of two");
        let ram_units = (cfg.phys_pages / cfg.huge_pages).max(1) as usize;
        assert!(
            cfg.huge_pages <= cfg.phys_pages,
            "huge page larger than physical memory"
        );
        Self {
            geom,
            tlb: Tlb::new(cfg.tlb_entries, cfg.tlb_policy, cfg.seed),
            ram: CacheSim::new(
                ram_units,
                AnyPolicy::new(cfg.ram_policy, ram_units, cfg.seed ^ 1),
            ),
            h: cfg.huge_pages,
        }
    }

    /// Huge-page size in base pages.
    pub fn huge_page_size(&self) -> u64 {
        self.h
    }

    /// RAM capacity in huge-page units.
    pub fn ram_units(&self) -> usize {
        self.ram.capacity()
    }
}

impl Stages for ClassicStages {
    // RAM first: a fault brings the whole physical huge page in (h IOs);
    // the TLB is touched once, after residency, so the probe is deferred.
    fn tlb_stage<O: SimObserver>(&mut self, _addr: VirtPage, _obs: &mut O) -> TlbProbe {
        TlbProbe::Deferred
    }

    fn residency_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        _probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        let u = self.geom.huge_of(addr);
        match self.ram.access(u.id()) {
            AccessResult::Hit => {}
            AccessResult::Miss { evicted } => {
                report.ios = self.h;
                if let Some(old) = evicted {
                    obs.on_eviction(EvictionEvent {
                        unit: old,
                        pages: self.h,
                    });
                    // The evicted unit's translation must leave the TLB —
                    // it no longer has a physical address.
                    if self.tlb.invalidate(VirtHugePage(old)).is_some() {
                        obs.on_tlb_event(TlbEvent::Shootdown);
                    }
                }
            }
        }
    }

    fn translate_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        _probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        // Fully associative over huge-page ids; touch-or-fill in one step.
        let u = self.geom.huge_of(addr);
        report.tlb_miss = !self.tlb.access_or_fill(u, || ());
        if report.tlb_miss {
            obs.on_tlb_event(TlbEvent::Fill);
        }
    }

    fn name(&self) -> String {
        format!("classic(h={})", self.h)
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        for &a in addrs {
            let u = self.geom.huge_of(a);
            self.ram.touch(&u.id());
            self.tlb.touch(u);
        }
    }

    // One group step over the lane window: resolve it in RAM and in the
    // TLB, then retire the leading run that resolved in *both* — a pure
    // hit takes no IO, evicts nothing, and emits no stage events, so each
    // structure taking its hits in lane order is bit-for-bit the
    // sequential outcome.
    fn retire_batch(&mut self, addrs: &[VirtPage]) -> usize {
        let n = addrs.len().min(LANES);
        let mut ram_keys = [0u64; LANES];
        let mut tlb_keys = [VirtHugePage(0); LANES];
        for i in 0..n {
            let u = self.geom.huge_of(addrs[i]);
            ram_keys[i] = u.id();
            tlb_keys[i] = u;
        }
        // The TLB only needs resolving where RAM hits, so its run is the
        // shorter one.
        let mut ram = self.ram.resolve_hit_run(&ram_keys[..n]);
        let tlb = self.tlb.resolve_hit_run(&tlb_keys[..ram.len()]);
        ram.truncate(tlb.len());
        self.ram.retire_hit_run(&ram);
        self.tlb.retire_hit_run(&tlb);
        tlb.len()
    }
}

/// The classic physical-huge-page memory manager.
pub type ClassicMm<O = crate::observe::NoopObserver> = Pipeline<ClassicStages, O>;

impl ClassicMm {
    /// Builds the manager (unobserved).
    ///
    /// # Panics
    /// Panics if `huge_pages` is not a power of two or exceeds `phys_pages`.
    pub fn new(cfg: ClassicConfig) -> Self {
        Pipeline::from_stages(ClassicStages::new(cfg))
    }
}

impl<O: SimObserver> ClassicMm<O> {
    /// Huge-page size in base pages.
    pub fn huge_page_size(&self) -> u64 {
        self.stages().huge_page_size()
    }

    /// RAM capacity in huge-page units.
    pub fn ram_units(&self) -> usize {
        self.stages().ram_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::MemoryManager;
    use atp_types::Costs;

    fn mm(h: u64, phys: u64, tlb: u64) -> ClassicMm {
        ClassicMm::new(ClassicConfig {
            huge_pages: h,
            phys_pages: phys,
            tlb_entries: tlb,
            tlb_policy: PolicyKind::Lru,
            ram_policy: PolicyKind::Lru,
            seed: 0,
        })
    }

    #[test]
    fn h1_costs_one_io_per_fault() {
        let mut m = mm(1, 4, 16);
        let r = m.access(VirtPage(0));
        assert_eq!(r.ios, 1);
        assert!(r.tlb_miss);
        let r = m.access(VirtPage(0));
        assert_eq!(r.ios, 0);
        assert!(!r.tlb_miss);
    }

    #[test]
    fn fault_amplification_is_h() {
        let mut m = mm(8, 64, 16);
        let r = m.access(VirtPage(3));
        assert_eq!(r.ios, 8, "fault moves h pages");
        // Neighbor within the same huge page: free.
        let r = m.access(VirtPage(5));
        assert_eq!(r.ios, 0);
        assert!(!r.tlb_miss, "same TLB entry covers the neighbor");
    }

    #[test]
    fn tlb_coverage_grows_with_h() {
        // Working set of 64 pages; TLB of 4 entries. With h=16, 4 entries
        // cover everything; with h=1 they cover almost nothing.
        let mut small = mm(1, 1 << 10, 4);
        let mut big = mm(16, 1 << 10, 4);
        for round in 0..50u64 {
            for p in 0..64u64 {
                small.access(VirtPage(p));
                big.access(VirtPage(p));
                let _ = round;
            }
        }
        assert!(big.costs().tlb_misses < small.costs().tlb_misses / 10);
    }

    #[test]
    fn reduced_ram_utilization_hurts_ios() {
        // Hot set = one page from each of 32 huge pages; RAM holds 16 units
        // of h=8 (128 pages "used" but only 32 hot). With h=1 all 32 hot
        // pages fit trivially.
        let mut small = mm(1, 128, 64);
        let mut big = mm(8, 128, 64);
        for round in 0..100u64 {
            for i in 0..32u64 {
                small.access(VirtPage(i * 8));
                big.access(VirtPage(i * 8));
                let _ = round;
            }
        }
        assert_eq!(
            small.costs().ios,
            32,
            "h=1: compulsory misses only (hot set fits)"
        );
        assert!(
            big.costs().ios > small.costs().ios * 10,
            "h=8 thrashes: {} vs {}",
            big.costs().ios,
            small.costs().ios
        );
    }

    #[test]
    fn ram_eviction_invalidates_tlb() {
        // RAM of 2 units (h=1), TLB of 16 (bigger than RAM): touching a
        // third page evicts a unit; its TLB entry must go too, so
        // re-touching it is BOTH an IO and a TLB miss.
        let mut m = mm(1, 2, 16);
        m.access(VirtPage(0));
        m.access(VirtPage(1));
        m.access(VirtPage(2)); // evicts 0
        let r = m.access(VirtPage(0));
        assert_eq!(r.ios, 1);
        assert!(r.tlb_miss, "stale TLB entry must have been invalidated");
    }

    #[test]
    fn reset_costs_keeps_state() {
        let mut m = mm(1, 4, 4);
        m.access(VirtPage(0));
        m.reset_costs();
        assert_eq!(m.costs(), Costs::default());
        let r = m.access(VirtPage(0));
        assert_eq!(r.ios, 0, "warm state preserved across reset");
    }

    #[test]
    fn name_mentions_h() {
        assert_eq!(mm(64, 1 << 10, 4).name(), "classic(h=64)");
    }

    #[test]
    fn observer_sees_shootdowns_and_evictions() {
        use crate::observe::Recorder;
        let mut m: ClassicMm<Recorder> = Pipeline::with_observer(
            ClassicStages::new(ClassicConfig {
                huge_pages: 1,
                phys_pages: 2,
                tlb_entries: 16,
                tlb_policy: PolicyKind::Lru,
                ram_policy: PolicyKind::Lru,
                seed: 0,
            }),
            Recorder::new(),
        );
        m.access(VirtPage(0));
        m.access(VirtPage(1));
        m.access(VirtPage(2)); // evicts 0, shoots down its TLB entry
        let c = m.observer().counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.tlb_shootdowns, 1);
        assert_eq!(c.tlb_fills, 3);
        assert_eq!(c.faults, 3);
    }
}
