//! An ASID-tagged TLB front-end with global-entry fallback.
//!
//! [`AsidTlb`] wraps a fully associative [`Tlb`] keyed by
//! [`TaggedHugePage`] and implements the hardware matching rule for
//! tagged TLBs: a lookup from tenant `a` hits an entry tagged `a` *or*
//! an entry tagged global ([`Asid::GLOBAL`] — the kernel/shared bit).
//! Context switches are free (no flush — the outgoing tenant's entries
//! simply stop matching); [`AsidTlb::flush_asid`] models the targeted
//! invalidation issued when an ASID is retired and recycled.
//!
//! Because a private miss falls back to a second (global-key) probe, the
//! inner sim's hit/miss counters over-count probes; [`AsidTlb`] keeps its
//! own per-lookup [`AsidTlbStats`] instead.

use crate::full::Tlb;
use atp_replacement::{AnyPolicy, HitRun, Lru, Policy, PolicyBuild, PolicyKind, LANES};
use atp_types::{Asid, TaggedHugePage, VirtHugePage};

/// Counters for an ASID-tagged TLB, kept per *lookup* (not per probe).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsidTlbStats {
    /// Lookups that matched a private (same-ASID) entry.
    pub private_hits: u64,
    /// Lookups that matched a global entry.
    pub global_hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Entries installed (private + global).
    pub inserts: u64,
    /// Entries explicitly invalidated (shootdowns).
    pub invalidations: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// `flush_asid` calls that removed at least one entry.
    pub asid_flushes: u64,
    /// Entries removed by `flush_asid` in total.
    pub flushed_entries: u64,
}

impl AsidTlbStats {
    /// Total hits (private + global).
    pub fn hits(&self) -> u64 {
        self.private_hits + self.global_hits
    }
}

/// One lane group's leading hit run in an [`AsidTlb`], produced by
/// [`AsidTlb::resolve_hit_run`]: per lane, the tenant's private entry if
/// resident, else the global one.
#[derive(Clone, Copy, Debug)]
pub struct AsidHitRun {
    run: HitRun,
    /// Bitmask of the lanes that matched a global entry.
    global: u32,
}

impl AsidHitRun {
    /// Lanes in the leading hit run.
    #[inline]
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether the group's first lane missed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }
}

/// A fully associative ASID-tagged TLB shared by all tenants.
///
/// One physical structure holds every tenant's entries plus global
/// entries; capacity pressure is shared, so a noisy tenant evicts its
/// neighbours' translations — exactly the ASID-pressure interference a
/// multi-tenant simulation is after.
#[derive(Debug)]
pub struct AsidTlb<V, P: Policy = Lru> {
    inner: Tlb<V, P, TaggedHugePage>,
    stats: AsidTlbStats,
}

impl<V> AsidTlb<V, AnyPolicy> {
    /// Creates a TLB with `entries` slots and a runtime-selected policy.
    pub fn new(entries: u64, policy: PolicyKind, seed: u64) -> Self {
        Self::from_inner(Tlb::new(entries, policy, seed))
    }
}

impl<V> AsidTlb<V, Lru> {
    /// Creates an LRU TLB, fully monomorphized.
    pub fn lru(entries: u64) -> Self {
        Self::from_inner(Tlb::lru(entries))
    }
}

impl<V, P: Policy> AsidTlb<V, P> {
    /// Creates a TLB with a statically chosen policy built from
    /// `(capacity, seed)`.
    pub fn monomorphic(entries: u64, seed: u64) -> Self
    where
        P: PolicyBuild,
    {
        Self::from_inner(Tlb::monomorphic(entries, seed))
    }

    fn from_inner(inner: Tlb<V, P, TaggedHugePage>) -> Self {
        Self {
            inner,
            stats: AsidTlbStats::default(),
        }
    }

    /// Capacity in entries (shared across all tenants).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Per-lookup counters.
    pub fn stats(&self) -> AsidTlbStats {
        self.stats
    }

    /// Whether tenant `asid` would hit on `huge` (private or global),
    /// without touching recency or counters.
    pub fn contains(&self, asid: Asid, huge: VirtHugePage) -> bool {
        self.inner.contains(TaggedHugePage::new(asid, huge))
            || self.inner.contains(TaggedHugePage::global(huge))
    }

    /// Looks up `huge` on behalf of tenant `asid`: the private entry
    /// matches first, then the global one. The matching entry's recency
    /// is refreshed.
    pub fn lookup(&mut self, asid: Asid, huge: VirtHugePage) -> Option<&V> {
        let private = TaggedHugePage::new(asid, huge);
        let key = if self.inner.contains(private) {
            self.stats.private_hits += 1;
            private
        } else {
            let global = TaggedHugePage::global(huge);
            if self.inner.contains(global) {
                self.stats.global_hits += 1;
                global
            } else {
                self.stats.misses += 1;
                return None;
            }
        };
        self.inner.lookup(key)
    }

    /// Inserts a private entry for tenant `asid`, returning the evicted
    /// entry (possibly another tenant's) if the TLB was full.
    ///
    /// # Panics
    /// Panics if the `(asid, huge)` entry is already resident.
    pub fn insert(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        value: V,
    ) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::new(asid, huge), value)
    }

    /// Inserts a global (all-tenants) entry.
    ///
    /// # Panics
    /// Panics if the global entry for `huge` is already resident.
    pub fn insert_global(&mut self, huge: VirtHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::global(huge), value)
    }

    fn insert_key(&mut self, key: TaggedHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        self.stats.inserts += 1;
        let evicted = self.inner.insert(key, value);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Invalidates tenant `asid`'s private entry for `huge` (a targeted
    /// shootdown), returning its value if resident. Global entries are
    /// untouched; use [`AsidTlb::invalidate_global`] for those.
    pub fn invalidate(&mut self, asid: Asid, huge: VirtHugePage) -> Option<V> {
        let v = self.inner.invalidate(TaggedHugePage::new(asid, huge));
        if v.is_some() {
            self.stats.invalidations += 1;
        }
        v
    }

    /// Invalidates the global entry for `huge`, returning its value if
    /// resident.
    pub fn invalidate_global(&mut self, huge: VirtHugePage) -> Option<V> {
        let v = self.inner.invalidate(TaggedHugePage::global(huge));
        if v.is_some() {
            self.stats.invalidations += 1;
        }
        v
    }

    /// Removes every private entry of `asid` (ASID retirement/recycling).
    /// Global entries survive. Returns how many entries were removed.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        let removed = self.inner.flush_asid(asid);
        if removed > 0 {
            self.stats.asid_flushes += 1;
            self.stats.flushed_entries += removed;
        }
        removed
    }

    /// Looks up `(asid, huge)` and on a miss installs a private entry
    /// supplied by `fill`. Returns whether it hit.
    pub fn access_or_fill(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        fill: impl FnOnce() -> V,
    ) -> bool {
        if self.lookup(asid, huge).is_some() {
            return true;
        }
        self.insert(asid, huge, fill());
        false
    }

    /// Pure-read step of the lane-group retire for a group that shares
    /// one ASID: resolves each of the first [`LANES`] lanes to its
    /// private entry, else its global one, and the leading run of lanes
    /// that matched either. Both key sets are probed group-wide so their
    /// probe-line misses overlap.
    #[inline]
    pub fn resolve_hit_run(&self, asid: Asid, huges: &[VirtHugePage]) -> AsidHitRun {
        let huges = huges.get(..LANES).unwrap_or(huges);
        let n = huges.len();
        let mut private = [TaggedHugePage::global(VirtHugePage(0)); LANES];
        let mut global = private;
        for (i, &huge) in huges.iter().enumerate() {
            private[i] = TaggedHugePage::new(asid, huge);
            global[i] = TaggedHugePage::global(huge);
        }
        let mut run = self.inner.resolve_hit_run(&private[..n]);
        let global = run.or_fallback(&self.inner.resolve_hit_run(&global[..n]));
        AsidHitRun { run, global }
    }

    /// Apply step of the lane-group retire: retires a resolved run in
    /// lane order, each lane exactly the hit path of [`AsidTlb::lookup`]
    /// (the private entry shadowing the global one).
    #[inline]
    pub fn retire_hit_run(&mut self, r: &AsidHitRun) {
        let len = r.run.len();
        let global = u64::from((r.global & ((1u32 << len) - 1)).count_ones());
        self.stats.global_hits += global;
        self.stats.private_hits += len as u64 - global;
        self.inner.retire_hit_run(&r.run);
    }

    /// Iterates resident (key, value) pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&TaggedHugePage, &V)> {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_entries_do_not_leak_across_tenants() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert(Asid(1), VirtHugePage(5), 15);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(5)), Some(&15));
        assert_eq!(t.lookup(Asid(2), VirtHugePage(5)), None);
        let s = t.stats();
        assert_eq!((s.private_hits, s.misses), (1, 1));
    }

    #[test]
    fn global_entries_match_every_tenant() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert_global(VirtHugePage(3), 33);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(3)), Some(&33));
        assert_eq!(t.lookup(Asid(200), VirtHugePage(3)), Some(&33));
        assert_eq!(t.stats().global_hits, 2);
    }

    #[test]
    fn private_shadows_global() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert_global(VirtHugePage(3), 33);
        t.insert(Asid(1), VirtHugePage(3), 11);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(3)), Some(&11));
        assert_eq!(t.lookup(Asid(2), VirtHugePage(3)), Some(&33));
    }

    #[test]
    fn flush_asid_spares_globals_and_other_tenants() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(16);
        for i in 0..4u64 {
            t.insert(Asid(1), VirtHugePage(i), i);
        }
        t.insert(Asid(2), VirtHugePage(0), 20);
        t.insert_global(VirtHugePage(9), 99);
        assert_eq!(t.flush_asid(Asid(1)), 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Asid(2), VirtHugePage(0)), Some(&20));
        assert_eq!(t.lookup(Asid(7), VirtHugePage(9)), Some(&99));
        let s = t.stats();
        assert_eq!((s.asid_flushes, s.flushed_entries), (1, 4));
    }

    #[test]
    fn capacity_is_shared_interference() {
        // Tenant 2's working set evicts tenant 1's entries: shared pressure.
        let mut t: AsidTlb<()> = AsidTlb::lru(4);
        for i in 0..4u64 {
            t.insert(Asid(1), VirtHugePage(i), ());
        }
        for i in 0..4u64 {
            t.access_or_fill(Asid(2), VirtHugePage(i), || ());
        }
        assert_eq!(t.stats().evictions, 4);
        for i in 0..4u64 {
            assert!(!t.contains(Asid(1), VirtHugePage(i)));
        }
    }

    #[test]
    fn single_tenant_behaves_like_untagged_lru() {
        // Driving only Asid(0) must reproduce the plain Tlb hit/miss
        // sequence exactly (same policy, same capacity).
        let mut tagged: AsidTlb<u64> = AsidTlb::lru(3);
        let mut plain: Tlb<u64> = Tlb::lru(3);
        let trace = [1u64, 2, 3, 1, 4, 2, 5, 1, 1, 3, 4, 5, 2];
        for &p in &trace {
            let a = tagged.access_or_fill(Asid::SINGLE, VirtHugePage(p), || p);
            let b = plain.access_or_fill(VirtHugePage(p), || p);
            assert_eq!(a, b, "diverged at page {p}");
        }
        assert_eq!(tagged.stats().hits(), plain.stats().hits);
        assert_eq!(tagged.stats().misses, plain.stats().misses);
    }

    #[test]
    fn lane_group_retire_matches_lookup_split() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        let mut gold: AsidTlb<u64> = AsidTlb::lru(8);
        for tlb in [&mut t, &mut gold] {
            tlb.insert_global(VirtHugePage(0), 100);
            tlb.insert_global(VirtHugePage(1), 101);
            tlb.insert(Asid(1), VirtHugePage(1), 11);
            tlb.insert(Asid(1), VirtHugePage(2), 12);
            tlb.insert(Asid(2), VirtHugePage(3), 23);
        }
        // Global, private-over-global, private, global again; then page 3
        // (another tenant's) misses and ends the run.
        let huges: Vec<VirtHugePage> = [0, 1, 2, 0, 3, 2].into_iter().map(VirtHugePage).collect();
        assert_eq!(t.resolve_hit_run(Asid(1), &huges).len(), 4);
        assert_eq!(t.stats(), gold.stats(), "resolution is a pure read");
        let run = t.resolve_hit_run(Asid(1), &huges[..3]);
        t.retire_hit_run(&run);
        for &u in &huges[..3] {
            gold.lookup(Asid(1), u);
        }
        assert_eq!(t.stats(), gold.stats());
        let s = t.stats();
        assert_eq!((s.private_hits, s.global_hits), (2, 1));
    }

    #[test]
    fn monomorphic_policy_builds() {
        use atp_replacement::Sieve;
        let mut t: AsidTlb<u64, Sieve> = AsidTlb::monomorphic(4, 0);
        assert!(!t.access_or_fill(Asid(1), VirtHugePage(1), || 1));
        assert!(t.access_or_fill(Asid(1), VirtHugePage(1), || 2));
        assert_eq!(t.capacity(), 4);
        assert!(!t.is_empty());
    }
}
