//! The single-objective algorithms `X` and `Y` of Theorem 4.
//!
//! Lemma 1: minimizing `C_TLB(X, σ)` is the classic paging problem on the
//! huge-page stream `r(p_1), …, r(p_n)` with a cache of ℓ entries, and
//! minimizing `C_IO(Y, σ)` is classic paging on `σ` with `(1−δ)P` pages.
//! These managers compute exactly those two costs, forming the right-hand
//! side of eq. (7): `C(Z, σ) ≤ C_TLB(X, σ) + C_IO(Y, σ) + n/poly(P)`.
//!
//! As pipelines, each is a degenerate single-stage configuration: `X` runs
//! only the TLB stage (no residency, no translation install beyond the
//! cache's own fill); `Y` bypasses the TLB and runs only the residency
//! stage.

use crate::observe::{EvictionEvent, SimObserver, TlbEvent};
use crate::pipeline::{Pipeline, Stages, TlbProbe};
use crate::traits::AccessReport;
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind, LANES};
use atp_types::{HugePageGeometry, VirtPage};

/// Stage state of `X`: a TLB over size-`hmax` huge pages, nothing else.
#[derive(Debug)]
pub struct VirtualOnlyStages {
    geom: HugePageGeometry,
    tlb: CacheSim<u64, AnyPolicy>,
}

impl VirtualOnlyStages {
    /// Builds the stages.
    pub fn new(hmax: u64, tlb_entries: u64, policy: PolicyKind, seed: u64) -> Self {
        let cap = tlb_entries as usize;
        Self {
            // atp-lint: allow(unwrap-policy, reason = "constructor contract: documented # Panics on invalid (non-power-of-two) huge-page config")
            geom: HugePageGeometry::new(hmax).expect("hmax power of two"),
            tlb: CacheSim::new(cap, AnyPolicy::new(policy, cap, seed)),
        }
    }
}

impl Stages for VirtualOnlyStages {
    fn tlb_stage<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> TlbProbe {
        let u = self.geom.huge_of(addr);
        // The cache fills on miss, so the fill happens here rather than in
        // the translate stage.
        if self.tlb.access(u.id()).is_hit() {
            TlbProbe::Hit
        } else {
            obs.on_tlb_event(TlbEvent::Fill);
            TlbProbe::Miss
        }
    }

    fn residency_stage<O: SimObserver>(
        &mut self,
        _addr: VirtPage,
        _probe: TlbProbe,
        _report: &mut AccessReport,
        _obs: &mut O,
    ) {
    }

    fn translate_stage<O: SimObserver>(
        &mut self,
        _addr: VirtPage,
        _probe: TlbProbe,
        _report: &mut AccessReport,
        _obs: &mut O,
    ) {
    }

    fn name(&self) -> String {
        format!("X(hmax={})", self.geom.pages_per_huge())
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        for &a in addrs {
            self.tlb.touch(&self.geom.huge_of(a).id());
        }
    }

    // The pure-hit path is exactly one TLB hit with no stage events.
    fn retire_batch(&mut self, addrs: &[VirtPage]) -> usize {
        let n = addrs.len().min(LANES);
        let mut keys = [0u64; LANES];
        for i in 0..n {
            keys[i] = self.geom.huge_of(addrs[i]).id();
        }
        let run = self.tlb.resolve_hit_run(&keys[..n]);
        self.tlb.retire_hit_run(&run);
        run.len()
    }
}

/// `X`: cares only about TLB misses, using huge pages of size `hmax`
/// (WLOG per Lemma 1's proof).
pub type VirtualOnlyMm<O = crate::observe::NoopObserver> = Pipeline<VirtualOnlyStages, O>;

impl VirtualOnlyMm {
    /// Builds `X` with `tlb_entries` entries over size-`hmax` huge pages.
    pub fn new(hmax: u64, tlb_entries: u64, policy: PolicyKind, seed: u64) -> Self {
        Pipeline::from_stages(VirtualOnlyStages::new(hmax, tlb_entries, policy, seed))
    }
}

/// Stage state of `Y`: classic paging on base pages, no TLB.
#[derive(Debug)]
pub struct PagingOnlyStages {
    ram: CacheSim<u64, AnyPolicy>,
}

impl PagingOnlyStages {
    /// Builds the stages.
    pub fn new(resident_pages: u64, policy: PolicyKind, seed: u64) -> Self {
        let cap = resident_pages as usize;
        Self {
            ram: CacheSim::new(cap, AnyPolicy::new(policy, cap, seed)),
        }
    }
}

impl Stages for PagingOnlyStages {
    fn tlb_stage<O: SimObserver>(&mut self, _addr: VirtPage, _obs: &mut O) -> TlbProbe {
        TlbProbe::Bypass
    }

    fn residency_stage<O: SimObserver>(
        &mut self,
        addr: VirtPage,
        _probe: TlbProbe,
        report: &mut AccessReport,
        obs: &mut O,
    ) {
        match self.ram.access(addr.id()) {
            AccessResult::Hit => {}
            AccessResult::Miss { evicted } => {
                report.ios = 1;
                if let Some(old) = evicted {
                    obs.on_eviction(EvictionEvent {
                        unit: old,
                        pages: 1,
                    });
                }
            }
        }
    }

    fn translate_stage<O: SimObserver>(
        &mut self,
        _addr: VirtPage,
        _probe: TlbProbe,
        _report: &mut AccessReport,
        _obs: &mut O,
    ) {
    }

    fn name(&self) -> String {
        format!("Y(m={})", self.ram.capacity())
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        for &a in addrs {
            self.ram.touch(&a.id());
        }
    }

    // The pure-hit path is exactly one RAM hit with no stage events.
    fn retire_batch(&mut self, addrs: &[VirtPage]) -> usize {
        let n = addrs.len().min(LANES);
        let mut keys = [0u64; LANES];
        for i in 0..n {
            keys[i] = addrs[i].id();
        }
        let run = self.ram.resolve_hit_run(&keys[..n]);
        self.ram.retire_hit_run(&run);
        run.len()
    }
}

/// `Y`: cares only about IOs — classic paging on base pages with a cache of
/// `(1−δ)P` pages.
pub type PagingOnlyMm<O = crate::observe::NoopObserver> = Pipeline<PagingOnlyStages, O>;

impl PagingOnlyMm {
    /// Builds `Y` with `resident_pages = ⌊(1−δ)P⌋` page slots.
    pub fn new(resident_pages: u64, policy: PolicyKind, seed: u64) -> Self {
        Pipeline::from_stages(PagingOnlyStages::new(resident_pages, policy, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::MemoryManager;

    #[test]
    fn x_counts_only_tlb() {
        let mut x = VirtualOnlyMm::new(4, 2, PolicyKind::Lru, 0);
        for p in [0u64, 1, 4, 8, 0] {
            x.access(VirtPage(p));
        }
        let c = x.costs();
        assert_eq!(c.ios, 0);
        // r-stream: 0,0,1,2,0 with 2 entries LRU → misses 0,1,2,0 = 4.
        assert_eq!(c.tlb_misses, 4);
        assert_eq!(c.tlb_hits, 1);
    }

    #[test]
    fn y_counts_only_ios() {
        let mut y = PagingOnlyMm::new(2, PolicyKind::Lru, 0);
        for p in [0u64, 1, 2, 0] {
            y.access(VirtPage(p));
        }
        let c = y.costs();
        assert_eq!(c.tlb_misses, 0);
        assert_eq!(c.ios, 4, "0,1,2 compulsory + 0 evicted and refetched");
    }

    #[test]
    fn x_with_hmax_one_sees_raw_stream() {
        let mut x = VirtualOnlyMm::new(1, 2, PolicyKind::Lru, 0);
        x.access(VirtPage(0));
        x.access(VirtPage(1));
        x.access(VirtPage(0));
        assert_eq!(x.costs().tlb_misses, 2);
        assert_eq!(x.costs().tlb_hits, 1);
    }

    #[test]
    fn bigger_hmax_never_hurts_on_local_streams() {
        // Sequential scan: with hmax=8, X misses once per 8 pages.
        let mut x1 = VirtualOnlyMm::new(1, 16, PolicyKind::Lru, 0);
        let mut x8 = VirtualOnlyMm::new(8, 16, PolicyKind::Lru, 0);
        for p in 0..256u64 {
            x1.access(VirtPage(p));
            x8.access(VirtPage(p));
        }
        assert_eq!(x1.costs().tlb_misses, 256);
        assert_eq!(x8.costs().tlb_misses, 32);
    }
}
