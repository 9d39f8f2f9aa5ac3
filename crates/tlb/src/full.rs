//! A fully associative TLB with a pluggable replacement policy.
//!
//! [`Tlb`] has two entry points over one slot arena. The scalar methods
//! ([`Tlb::lookup`], [`Tlb::insert`], [`Tlb::access_or_fill`], …) are
//! what every manager runs, one access at a time. The batch entry point
//! [`Tlb::access_or_fill_batch`] retires a whole in-order stream and
//! exploits what such a stream makes provable that a single access
//! cannot: most retires are *re*-resolutions of something the stream
//! resolved moments ago. Each lane runs three steps:
//!
//! 1. **speculative resolution** — the lane hash indexes a small
//!    **resolution cache** (the software analogue of an L0 micro-TLB:
//!    recently retired `(hash tag, slot)` pairs, never invalidated),
//!    yielding a candidate slot without touching the flat
//!    [`atp_hash::SlotIndex`];
//! 2. **validated retire** — the candidate is accepted iff the key arena
//!    *still* holds the lane's key at that slot
//!    ([`CacheSim::slot_holds`]) — an exact O(1) residency proof, just
//!    like a hardware TLB's tag check at use, and immune to whatever
//!    membership mutations earlier lanes (or scalar calls between
//!    batches) performed. A validated lane pays the policy refresh and
//!    the hit counter, minus the index probe and minus the value-arena
//!    load the counting API never needed; a back-to-back repeat of the
//!    same slot even elides the refresh for policies that opt in
//!    ([`Policy::coalesces_repeat_hits`] — `on_hit` idempotency makes the
//!    elision exact, so sequential runs retire at counter speed);
//! 3. **fused slow lane** — a lane with no valid candidate (cold key,
//!    stale hint, tag collision) re-runs the fused access *reusing the
//!    lane hash*: hit → policy refresh, miss → fill + insert, with the
//!    miss's probe doubling as the absence proof so the insert pays no
//!    further residency checks (the scalar path pays three probes per
//!    miss for the same transitions).
//!
//! Validation at retire is what keeps the batch entry bit-for-bit equal
//! to the scalar path on every trace and every deterministic policy:
//! counters, membership, and victim choice are decided by exactly the
//! same state transitions in the same order, only the redundant
//! re-derivations (repeat index probes, re-hashes, value reads nobody
//! consumes, policy splices that provably re-create the current state)
//! are gone. The scalar methods never read or write the resolution
//! cache, which is allocated on the first batch call.
//!
//! Managers that retire fixed lane groups instead use the two-step
//! lane-group retire shared with every other [`CacheSim`]:
//! [`Tlb::resolve_hit_run`] then [`Tlb::retire_hit_run`].

use crate::key::TlbKey;
use atp_hash::{fx_hash, NO_SLOT};
use atp_replacement::{AnyPolicy, CacheSim, HitRun, Lru, Policy, PolicyBuild, PolicyKind};
use atp_types::{Asid, EvictCause, ProfSink, TaggedHugePage, VirtHugePage};

/// Entries in the resolution cache (a power of two). Indexed by the top
/// bits of the lane hash; a few KiB, so it stays L1-resident next to the
/// structures it shortcuts while covering most of the hot mass of a
/// skewed trace (the top 512 of a Zipf(1.1) working set carry ~90% of its
/// accesses).
const RECENT: usize = 512;
/// Right-shift extracting a [`RECENT`]-entry index from a 64-bit hash.
const RECENT_SHIFT: u32 = 64 - RECENT.trailing_zeros();

/// Recently retired resolutions — the speculative resolution source.
/// Each entry is a `(hash tag, slot)` pair: the full 64-bit lane hash
/// stands in for the key (no `Option` discriminants, no generic key
/// compares on the fast path) and the slot is a bare index. Entries are
/// *hints*, never trusted: a candidate only retires after the key arena
/// confirms it still holds the lane's key at that slot, so a stale slot,
/// a hash-tag collision, or even the zeroed initial state costs one
/// fallback probe (or, if the arena happens to confirm, simply *is* a
/// correct hit), never correctness. That is also why nothing ever
/// invalidates this cache. Tag and slot sit in one pair so a lookup
/// touches a single line; slots are initialized in-bounds (slot 0) so
/// validation is always a safe arena read.
type Resolutions = [(u64, u32); RECENT];

/// TLB event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found the huge page.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries installed.
    pub inserts: u64,
    /// Entries explicitly invalidated (shootdowns etc.).
    pub invalidations: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

/// A fully associative TLB of ℓ entries mapping virtual huge pages to a
/// value payload `V`.
///
/// The entry payload lives *inside* the [`CacheSim`] slot arena, so a
/// scalar hit is a single hash probe plus index arithmetic; see the
/// module docs for the batch entry point. The policy parameter `P`
/// is monomorphized: `Tlb<V>` (= `Tlb<V, Lru>`) is the paper's default
/// fully-associative LRU TLB with a statically dispatched policy, while
/// [`Tlb::new`] returns `Tlb<V, AnyPolicy>` for [`PolicyKind`]-configured
/// experiments. The key parameter `K` defaults to [`VirtHugePage`]
/// (single address space); multi-tenant simulations use
/// [`TaggedHugePage`] keys, which additionally unlock
/// [`Tlb::flush_asid`].
#[derive(Debug)]
pub struct Tlb<V, P: Policy = Lru, K: TlbKey = VirtHugePage> {
    sim: CacheSim<K, P, V>,
    /// Insert/invalidation/eviction counters; hits and misses live in the
    /// sim (counted by `access_if_present`) so the hit path pays for them
    /// exactly once. [`Tlb::stats`] assembles the full view.
    stats: TlbStats,
    /// The batch entry point's resolution cache, allocated by its first
    /// call; the scalar methods never touch it.
    recent: Option<Box<Resolutions>>,
}

impl<V, K: TlbKey> Tlb<V, AnyPolicy, K> {
    /// Creates a TLB with `entries` slots and the given replacement policy,
    /// selected at runtime.
    pub fn new(entries: u64, policy: PolicyKind, seed: u64) -> Self {
        let cap = entries as usize;
        Self::with_policy(entries, AnyPolicy::new(policy, cap, seed))
    }
}

impl<V, K: TlbKey> Tlb<V, Lru, K> {
    /// Creates an LRU TLB (the paper's default), fully monomorphized.
    pub fn lru(entries: u64) -> Self {
        Self::with_policy(entries, Lru::new(entries as usize))
    }
}

impl<V, P: Policy, K: TlbKey> Tlb<V, P, K> {
    /// Creates a TLB with `entries` slots driven by a concrete policy value.
    pub fn with_policy(entries: u64, policy: P) -> Self {
        Self {
            sim: CacheSim::new(entries as usize, policy),
            stats: TlbStats::default(),
            recent: None,
        }
    }

    /// Creates a TLB with a statically chosen policy built from
    /// `(capacity, seed)` — e.g. `Tlb::<u64, Sieve>::monomorphic(64, 0)`.
    pub fn monomorphic(entries: u64, seed: u64) -> Self
    where
        P: PolicyBuild,
    {
        Self::with_policy(entries, P::build(entries as usize, seed))
    }

    /// Capacity ℓ.
    pub fn capacity(&self) -> usize {
        self.sim.capacity()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Event counters.
    pub fn stats(&self) -> TlbStats {
        TlbStats {
            hits: self.sim.hits(),
            misses: self.sim.misses(),
            ..self.stats
        }
    }

    /// Whether `u` is cached, without touching recency or counters.
    pub fn contains(&self, u: K) -> bool {
        self.sim.contains(&u)
    }

    /// Warms the probe line for `u` without resolving the probe — the
    /// prefetch stage of a batched pipeline. Semantically a no-op.
    #[inline]
    pub fn touch(&self, u: K) {
        self.sim.touch(&u);
    }

    /// Looks up `u`, updating recency and hit/miss counters. One probe.
    #[inline]
    pub fn lookup(&mut self, u: K) -> Option<&V> {
        self.sim.access_if_present(&u)
    }

    /// Pure-read step of the lane-group retire: resolves the first
    /// [`atp_replacement::LANES`] keys and their leading hit run. See
    /// [`CacheSim::resolve_hit_run`].
    #[inline]
    pub fn resolve_hit_run(&self, keys: &[K]) -> HitRun {
        self.sim.resolve_hit_run(keys)
    }

    /// Apply step of the lane-group retire: retires a resolved run in
    /// lane order, each lane exactly the hit path of [`Tlb::lookup`]. See
    /// [`CacheSim::retire_hit_run`].
    #[inline]
    pub fn retire_hit_run(&mut self, run: &HitRun) {
        self.sim.retire_hit_run(run);
    }

    /// Inserts `u → value`, returning the evicted entry if the TLB was full.
    ///
    /// # Panics
    /// Panics if `u` is already resident (use [`Tlb::update`] to change a
    /// resident value).
    pub fn insert(&mut self, u: K, value: V) -> Option<(K, V)> {
        let evicted = self.sim.insert_cold_with(u, value);
        self.stats.inserts += 1;
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Updates the value of a resident entry in place (free in the cost
    /// model — ψ updates do not count as TLB traffic). Returns whether the
    /// entry was resident.
    pub fn update(&mut self, u: K, f: impl FnOnce(&mut V)) -> bool {
        match self.sim.get_mut(&u) {
            Some(v) => {
                f(v);
                true
            }
            None => false,
        }
    }

    /// Reads a resident value without touching recency or counters.
    pub fn peek(&self, u: K) -> Option<&V> {
        self.sim.get(&u)
    }

    /// Invalidates `u`, returning its value if it was resident.
    pub fn invalidate(&mut self, u: K) -> Option<V> {
        let v = self.sim.remove_entry(&u);
        if v.is_some() {
            self.stats.invalidations += 1;
        }
        v
    }

    /// Accesses `u` like a hardware lookup-and-fill driven by `fill`:
    /// on a miss, `fill(u)` supplies the new value. Returns whether it hit.
    /// One hash and one index probe: the probe that misses is the absence
    /// proof the insert needs, as in the batch path's slow lane.
    pub fn access_or_fill(&mut self, u: K, fill: impl FnOnce() -> V) -> bool {
        let h = fx_hash(&u);
        if self.sim.access_slot_hashed(h, &u).is_some() {
            return true;
        }
        let v = fill();
        self.stats.inserts += 1;
        if self.sim.insert_cold_hashed(h, u, v).1.is_some() {
            self.stats.evictions += 1;
        }
        false
    }

    /// The batch entry point: accesses every element of `us` in order —
    /// each becomes a key through `key` inside the retire loop, so a
    /// driver holding raw `&[u64]` pages feeds the engine with no staging
    /// copy (`key` must be pure; a newtype wrap the optimizer erases, or
    /// `|k| k`) — fills misses from `fill`, and returns how many hit.
    /// Bit-for-bit equivalent to [`Tlb::access_or_fill`] per key for
    /// every deterministic policy; each access runs speculative
    /// resolution → validated retire, falling back to one fused probe
    /// (see the module docs).
    ///
    /// `prof` receives a resolution breakdown — `rc_hit` for fast-lane
    /// validated resolutions, `rc_stale` for slow-lane hits, `rc_cold`
    /// for misses (so `rc_hit + rc_stale` equals the hit count and
    /// `rc_cold` the miss count), slow-lane probe lengths,
    /// consecutive-miss run lengths, and capacity evictions. Callers
    /// without a profiler pass [`atp_types::NoProf`], whose `enabled()`
    /// constant-folds to `false`: every profiling branch below folds away.
    pub fn access_or_fill_batch<U: Copy, PS: ProfSink>(
        &mut self,
        us: &[U],
        key: impl Fn(U) -> K,
        mut fill: impl FnMut(K) -> V,
        mut prof: PS,
    ) -> u64 {
        let profiled = prof.enabled();
        let recent = self
            .recent
            .get_or_insert_with(|| Box::new([(0, 0); RECENT]));
        let mut hits = 0u64;
        // Length of the current run of consecutive misses (profiled only).
        let mut miss_run = 0u64;
        // Slot of the most recently retired *hit*, NO_SLOT after an insert.
        // For policies that opt in (constant-folds per monomorphization),
        // a validated repeat hit on this slot elides its policy refresh:
        // `on_hit` is idempotent under immediate repetition (a `Policy`
        // contract), so only the counter moves. Sequential scans and BFS
        // adjacency runs — long runs of one huge page — then retire at
        // counter speed instead of re-splicing the LRU head each lane.
        let coalesce = self.sim.coalesces_repeat_hits();
        let mut last_hit = NO_SLOT;
        for &u in us {
            let k = key(u);
            let h = fx_hash(&k);
            // Speculative resolution: the lane's candidate slot comes from
            // the resolution cache, tagged by the full lane hash. It is
            // accepted iff the key arena still holds the lane's key at
            // that slot — an exact residency proof, whatever membership
            // mutations earlier lanes performed — and then retires as a
            // hit without ever probing the slot index.
            let r = (h >> RECENT_SHIFT) as usize;
            // atp-lint: allow(no-panic-hotpath, reason = "r = h >> RECENT_SHIFT < RECENT by construction; recent is a fixed [_; RECENT] array")
            let (tag, rs) = recent[r];
            if tag == h && self.sim.slot_holds(rs, &k) {
                if coalesce && rs == last_hit {
                    self.sim.count_repeat_hit();
                } else {
                    self.sim.apply_hit_counted(rs);
                    last_hit = rs;
                }
                hits += 1;
                if profiled {
                    prof.rc_hit(1);
                    if miss_run > 0 {
                        prof.miss_run(miss_run);
                        miss_run = 0;
                    }
                }
                continue;
            }
            // Slow lane (cold key, stale hint, tag collision): one fused
            // access reusing the lane hash.
            if profiled {
                // The extra pure-read probe exists only to measure, so it
                // is gated on the sink actually collecting.
                prof.probe_len(self.sim.probe_len_hashed(h, &k));
            }
            let s = if let Some(s) = self.sim.access_slot_hashed(h, &k) {
                hits += 1;
                last_hit = s;
                if profiled {
                    prof.rc_stale(1);
                    if miss_run > 0 {
                        prof.miss_run(miss_run);
                        miss_run = 0;
                    }
                }
                s
            } else {
                // Miss: the probe above is the absence proof, so the
                // insert pays no further residency checks. The repeat-hit
                // slot must be forgotten: the eviction may have freed it
                // for this very insert, and the new tenant's first hit
                // owes a real `on_hit`.
                let v = fill(k);
                self.stats.inserts += 1;
                let (s, evicted) = self.sim.insert_cold_hashed(h, k, v);
                if evicted.is_some() {
                    self.stats.evictions += 1;
                    if profiled {
                        prof.eviction(EvictCause::Capacity);
                    }
                }
                if profiled {
                    prof.rc_cold(1);
                    miss_run += 1;
                }
                last_hit = NO_SLOT;
                s
            };
            // atp-lint: allow(no-panic-hotpath, reason = "r = h >> RECENT_SHIFT < RECENT by construction; recent is a fixed [_; RECENT] array")
            recent[r] = (h, s);
        }
        if profiled && miss_run > 0 {
            prof.miss_run(miss_run);
        }
        hits
    }

    /// Iterates resident (huge page, value) pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sim.entries()
    }
}

/// ASID-aware operations, available when entries carry an address-space
/// tag.
impl<V, P: Policy> Tlb<V, P, TaggedHugePage> {
    /// Invalidates every entry of address space `asid` — the hardware
    /// `invpcid`-style targeted flush used on tenant retirement and ASID
    /// recycling. Entries tagged [`Asid::GLOBAL`] survive (flushing the
    /// global tag itself is a no-op). Returns how many entries were
    /// removed; each one counts as an invalidation in [`Tlb::stats`].
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        if asid.is_global() {
            return 0;
        }
        let removed = self.sim.remove_matching(|k| k.asid == asid);
        self.stats.invalidations += removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_hash::CounterRng;
    use atp_replacement::{Clock, Fifo, Sieve};
    use atp_types::NoProf;

    #[test]
    fn hit_miss_and_fill() {
        let mut tlb: Tlb<u64> = Tlb::lru(2);
        assert!(tlb.lookup(VirtHugePage(1)).is_none());
        tlb.insert(VirtHugePage(1), 100);
        assert_eq!(tlb.lookup(VirtHugePage(1)), Some(&100));
        let s = tlb.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn eviction_returns_victim_value() {
        let mut tlb: Tlb<u64> = Tlb::lru(2);
        tlb.insert(VirtHugePage(1), 10);
        tlb.insert(VirtHugePage(2), 20);
        let evicted = tlb.insert(VirtHugePage(3), 30);
        assert_eq!(evicted, Some((VirtHugePage(1), 10)));
        assert_eq!(tlb.stats().evictions, 1);
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn lru_order_respected() {
        let mut tlb: Tlb<u64> = Tlb::lru(2);
        tlb.insert(VirtHugePage(1), 10);
        tlb.insert(VirtHugePage(2), 20);
        tlb.lookup(VirtHugePage(1)); // refresh 1
        let evicted = tlb.insert(VirtHugePage(3), 30);
        assert_eq!(evicted, Some((VirtHugePage(2), 20)));
    }

    #[test]
    fn update_in_place_is_free() {
        let mut tlb: Tlb<Vec<u32>> = Tlb::lru(2);
        tlb.insert(VirtHugePage(5), vec![1]);
        let before = tlb.stats();
        assert!(tlb.update(VirtHugePage(5), |v| v.push(2)));
        assert!(!tlb.update(VirtHugePage(6), |v| v.push(9)));
        assert_eq!(tlb.peek(VirtHugePage(5)), Some(&vec![1, 2]));
        let after = tlb.stats();
        assert_eq!(before, after, "update must not move counters");
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut tlb: Tlb<u64> = Tlb::lru(4);
        tlb.insert(VirtHugePage(7), 70);
        assert_eq!(tlb.invalidate(VirtHugePage(7)), Some(70));
        assert_eq!(tlb.invalidate(VirtHugePage(7)), None);
        assert_eq!(tlb.stats().invalidations, 1);
        assert!(!tlb.contains(VirtHugePage(7)));
    }

    #[test]
    fn access_or_fill_fills_once() {
        let mut tlb: Tlb<u64> = Tlb::lru(4);
        let mut fills = 0;
        assert!(!tlb.access_or_fill(VirtHugePage(1), || {
            fills += 1;
            11
        }));
        assert!(tlb.access_or_fill(VirtHugePage(1), || {
            fills += 1;
            22
        }));
        assert_eq!(fills, 1);
        assert_eq!(tlb.peek(VirtHugePage(1)), Some(&11));
    }

    #[test]
    fn fifo_policy_differs_from_lru() {
        fn script<P: Policy>(t: &mut Tlb<(), P>) {
            t.insert(VirtHugePage(1), ());
            t.insert(VirtHugePage(2), ());
            t.lookup(VirtHugePage(1));
            t.insert(VirtHugePage(3), ());
        }
        let mut lru: Tlb<()> = Tlb::lru(2);
        let mut fifo: Tlb<(), AnyPolicy> = Tlb::new(2, PolicyKind::Fifo, 0);
        script(&mut lru);
        script(&mut fifo);
        assert!(lru.contains(VirtHugePage(1)));
        assert!(!fifo.contains(VirtHugePage(1)));
    }

    #[test]
    fn monomorphic_sieve_matches_runtime_sieve() {
        use atp_replacement::Sieve;
        let mut mono: Tlb<u64, Sieve> = Tlb::monomorphic(3, 0);
        let mut any: Tlb<u64, AnyPolicy> = Tlb::new(3, PolicyKind::Sieve, 0);
        for i in 0..400u64 {
            let u = VirtHugePage(i % 7);
            assert_eq!(
                mono.access_or_fill(u, || i),
                any.access_or_fill(u, || i),
                "diverged at access {i}"
            );
        }
        assert_eq!(mono.stats(), any.stats());
    }

    #[test]
    #[should_panic(expected = "insert_cold on resident key")]
    fn double_insert_panics() {
        let mut tlb: Tlb<u64> = Tlb::lru(2);
        tlb.insert(VirtHugePage(1), 1);
        tlb.insert(VirtHugePage(1), 2);
    }

    #[test]
    fn flush_asid_removes_only_that_tenant() {
        let mut tlb: Tlb<u64, Lru, TaggedHugePage> = Tlb::lru(8);
        for i in 0..3u64 {
            tlb.insert(TaggedHugePage::new(Asid(1), VirtHugePage(i)), i);
            tlb.insert(TaggedHugePage::new(Asid(2), VirtHugePage(i)), i);
        }
        tlb.insert(TaggedHugePage::global(VirtHugePage(9)), 99);
        assert_eq!(tlb.flush_asid(Asid(1)), 3);
        assert_eq!(tlb.len(), 4);
        assert!(!tlb.contains(TaggedHugePage::new(Asid(1), VirtHugePage(0))));
        assert!(tlb.contains(TaggedHugePage::new(Asid(2), VirtHugePage(0))));
        assert!(tlb.contains(TaggedHugePage::global(VirtHugePage(9))));
        assert_eq!(tlb.flush_asid(Asid(1)), 0);
        assert_eq!(tlb.flush_asid(Asid::GLOBAL), 0, "global flush is a no-op");
        assert_eq!(tlb.stats().invalidations, 3);
    }

    #[test]
    fn values_follow_entries_exactly() {
        // slot arena and key map must stay in lockstep under churn.
        let mut tlb: Tlb<u64> = Tlb::lru(8);
        for i in 0..1000u64 {
            let u = VirtHugePage(i % 23);
            if tlb.lookup(u).is_none() {
                tlb.insert(u, i);
            }
            assert_eq!(tlb.len(), tlb.iter().count());
        }
    }

    /// Drives the batch entry point of one TLB and the scalar path of a
    /// twin through the same ops and asserts identical observable
    /// behaviour.
    fn assert_batch_matches_scalar<P: Policy + PolicyBuild>(
        ops: &[(u8, u64)],
        entries: u64,
        batch: usize,
    ) {
        let mut fast: Tlb<u64, P> = Tlb::monomorphic(entries, 0);
        let mut gold: Tlb<u64, P> = Tlb::monomorphic(entries, 0);
        let mut pending: Vec<VirtHugePage> = Vec::new();
        let flush =
            |fast: &mut Tlb<u64, P>, gold: &mut Tlb<u64, P>, pending: &mut Vec<VirtHugePage>| {
                let fast_hits = fast.access_or_fill_batch(pending, |k| k, |u| u.0 * 10, NoProf);
                let mut gold_hits = 0;
                for &u in pending.iter() {
                    if gold.access_or_fill(u, || u.0 * 10) {
                        gold_hits += 1;
                    }
                }
                assert_eq!(fast_hits, gold_hits);
                pending.clear();
            };
        for &(kind, page) in ops {
            let u = VirtHugePage(page);
            match kind {
                0 => {
                    pending.push(u);
                    if pending.len() == batch {
                        flush(&mut fast, &mut gold, &mut pending);
                    }
                }
                _ => {
                    flush(&mut fast, &mut gold, &mut pending);
                    assert_eq!(fast.invalidate(u), gold.invalidate(u));
                }
            }
        }
        flush(&mut fast, &mut gold, &mut pending);
        assert_eq!(fast.stats(), gold.stats());
        assert_eq!(fast.len(), gold.len());
        let mut a: Vec<(u64, u64)> = fast.iter().map(|(k, v)| (k.0, *v)).collect();
        let mut b: Vec<(u64, u64)> = gold.iter().map(|(k, v)| (k.0, *v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "resident sets diverged");
    }

    /// `(ops, entries, batch)` churn scripts for the batch-equivalence tests.
    type ChurnScript = (Vec<(u8, u64)>, u64, usize);

    fn churn_scripts() -> Vec<ChurnScript> {
        let mut scripts = Vec::new();
        for (seed, span, entries, batch) in [
            (1u64, 40u64, 16u64, 16usize),
            (2, 8, 4, 7),
            (3, 200, 16, 16),
            (4, 13, 8, 1),
            (5, 64, 32, 13),
        ] {
            let mut rng = CounterRng::new(0xBA7C, seed);
            let ops: Vec<(u8, u64)> = (0..4000)
                .map(|_| {
                    let kind = u8::from(rng.next_below(12) == 0);
                    (kind, rng.next_below(span))
                })
                .collect();
            scripts.push((ops, entries, batch));
        }
        scripts
    }

    #[test]
    fn batch_equivalent_to_scalar_under_churn() {
        for (ops, entries, batch) in churn_scripts() {
            assert_batch_matches_scalar::<Lru>(&ops, entries, batch);
            assert_batch_matches_scalar::<Fifo>(&ops, entries, batch);
            assert_batch_matches_scalar::<Clock>(&ops, entries, batch);
            assert_batch_matches_scalar::<Sieve>(&ops, entries, batch);
        }
    }

    #[test]
    fn batch_runtime_policy_matches_monomorphic_scalar() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::Sieve,
        ] {
            let mut any: Tlb<u64, AnyPolicy> = Tlb::new(8, kind, 0);
            let mut gold: Tlb<u64, AnyPolicy> = Tlb::new(8, kind, 0);
            let us: Vec<VirtHugePage> = (0..600).map(|i| VirtHugePage(i * 7 % 23)).collect();
            let fast_hits = any.access_or_fill_batch(&us, |k| k, |u| u.0, NoProf);
            let mut gold_hits = 0;
            for &u in &us {
                if gold.access_or_fill(u, || u.0) {
                    gold_hits += 1;
                }
            }
            assert_eq!(fast_hits, gold_hits, "{kind} hit counts diverged");
            assert_eq!(any.stats(), gold.stats(), "{kind} stats diverged");
        }
    }

    #[test]
    fn batch_duplicate_misses_fill_then_hit() {
        // Same absent page three times in one batch: the first lane misses
        // and fills, the others must hit — exactly like the scalar path.
        let mut t: Tlb<u64> = Tlb::lru(4);
        let us = [VirtHugePage(9), VirtHugePage(9), VirtHugePage(9)];
        assert_eq!(t.access_or_fill_batch(&us, |k| k, |u| u.0, NoProf), 2);
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (2, 1, 1));
        assert_eq!(t.access_or_fill_batch(&[], |k| k, |u| u.0, NoProf), 0);
        assert_eq!(t.stats(), s, "an empty batch is a no-op");
    }

    #[test]
    fn scalar_calls_between_batches_stay_exact() {
        // Scalar invalidations and inserts move entries under the batch
        // loop's resolution hints; validation at retire keeps it exact.
        let mut t: Tlb<u64> = Tlb::lru(4);
        let mut gold: Tlb<u64> = Tlb::lru(4);
        let us: Vec<VirtHugePage> = [0, 1, 2, 3, 0, 2].into_iter().map(VirtHugePage).collect();
        for round in 0..4u64 {
            let hits = t.access_or_fill_batch(&us, |k| k, |u| u.0, NoProf);
            let mut gold_hits = 0;
            for &u in &us {
                if gold.access_or_fill(u, || u.0) {
                    gold_hits += 1;
                }
            }
            assert_eq!(hits, gold_hits, "round {round}");
            for tlb in [&mut t, &mut gold] {
                tlb.invalidate(VirtHugePage(round));
                tlb.insert(VirtHugePage(10 + round), round);
            }
        }
        assert_eq!(t.stats(), gold.stats());
        let mut a: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k.0, *v)).collect();
        let mut b: Vec<(u64, u64)> = gold.iter().map(|(k, v)| (k.0, *v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[derive(Default)]
    struct Tally {
        rc_hit: u64,
        rc_stale: u64,
        rc_cold: u64,
        probes: u64,
        runs: Vec<u64>,
        evictions: u64,
    }

    impl ProfSink for Tally {
        fn rc_hit(&mut self, n: u64) {
            self.rc_hit += n;
        }
        fn rc_stale(&mut self, n: u64) {
            self.rc_stale += n;
        }
        fn rc_cold(&mut self, n: u64) {
            self.rc_cold += n;
        }
        fn probe_len(&mut self, _len: u64) {
            self.probes += 1;
        }
        fn miss_run(&mut self, len: u64) {
            self.runs.push(len);
        }
        fn eviction(&mut self, cause: EvictCause) {
            assert_eq!(cause, EvictCause::Capacity);
            self.evictions += 1;
        }
    }

    #[test]
    fn profiled_batch_is_behaviour_identical_and_reconciles() {
        // A key span well past RECENT (512) so hints get overwritten by
        // colliding keys while their targets stay resident (→ rc_stale),
        // and past the capacity so fills evict (→ rc_cold + evictions).
        let mut rng = CounterRng::new(0x9B0F, 3);
        let us: Vec<VirtHugePage> = (0..30_000)
            .map(|_| VirtHugePage(rng.next_below(1000)))
            .collect();
        let mut plain: Tlb<u64> = Tlb::lru(512);
        let mut prof: Tlb<u64> = Tlb::lru(512);
        let mut tally = Tally::default();
        let mut plain_hits = 0;
        let mut prof_hits = 0;
        for chunk in us.chunks(37) {
            plain_hits += plain.access_or_fill_batch(chunk, |k| k, |u| u.0 * 3, NoProf);
            prof_hits += prof.access_or_fill_batch(chunk, |k| k, |u| u.0 * 3, &mut tally);
        }
        assert_eq!(plain_hits, prof_hits, "profiling changed behaviour");
        assert_eq!(plain.stats(), prof.stats());
        let s = prof.stats();
        // The resolution breakdown reconciles exactly with the sim totals.
        assert_eq!(tally.rc_hit + tally.rc_stale, s.hits);
        assert_eq!(tally.rc_cold, s.misses);
        assert!(tally.rc_hit > 0, "hot trace must exercise the fast lane");
        assert!(tally.rc_stale > 0, "churn must exercise stale hints");
        // Every slow-lane access measured exactly one probe.
        assert_eq!(tally.probes, tally.rc_stale + tally.rc_cold);
        // Miss runs partition the misses.
        assert_eq!(tally.runs.iter().sum::<u64>(), s.misses);
        assert_eq!(tally.evictions, s.evictions);
    }

    #[test]
    fn trailing_miss_run_is_flushed_at_batch_end() {
        let mut t: Tlb<u64> = Tlb::lru(8);
        let mut tally = Tally::default();
        let us: Vec<VirtHugePage> = (0..5).map(VirtHugePage).collect();
        t.access_or_fill_batch(&us, |k| k, |u| u.0, &mut tally);
        assert_eq!(tally.runs, [5], "all-miss batch ends one run of 5");
    }
}
