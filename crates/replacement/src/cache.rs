//! The generic cache simulator driving a replacement policy.
//!
//! [`CacheSim`] is the single-probe slot arena at the bottom of every hot
//! path in the workspace: one [`SlotIndex`] probe (a flat open-addressing
//! `hash → slot` table taking precomputed Fx hashes) resolves to a slot id
//! into cache-line-conscious SoA arenas — keys, values, and the policy's
//! intrusive recency metadata (u32 links, reference bits, …) each live in
//! their own slot-indexed array, so a hit touches only the probe line, the
//! key line it validates against, and the arena the caller actually needs.
//! A hit is therefore one hash probe plus O(1) index arithmetic — no second
//! map for values, no membership pre-check. The policy type parameter `P`
//! is monomorphized at the call site; pass [`crate::AnyPolicy`] for
//! runtime-configured policies.
//!
//! The split layout is what the batched translation engine builds on: the
//! key arena doubles as an O(1) residency oracle ([`CacheSim::slot_holds`])
//! that lets a batch loop *validate* a speculatively resolved slot instead
//! of re-probing for it, and the hashed entry points
//! ([`CacheSim::access_slot_hashed`], [`CacheSim::insert_cold_hashed`])
//! accept precomputed hashes so a miss pays exactly one probe — the probe
//! that proved absence.

use crate::policy::{Policy, SlotId};
use atp_hash::flat::{fx_hash, SlotIndex, NO_SLOT};
use core::hash::Hash;

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult<K> {
    /// The key was resident.
    Hit,
    /// The key was not resident and has been inserted; if the cache was
    /// full, `evicted` names the victim that made room.
    Miss {
        /// Victim evicted to make room, if the cache was at capacity.
        evicted: Option<K>,
    },
}

impl<K> AccessResult<K> {
    /// Whether this was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// Lane-group width of the batched retire paths: [`CacheSim::resolve_hit_run`]
/// resolves at most this many lanes per call, and the manager pipelines
/// stage their batches in groups of this size.
pub const LANES: usize = 16;

// Lane bitmasks (see [`HitRun::or_fallback`]) are `u32`.
const _: () = assert!(LANES < 32);

/// One lane group's slot resolutions and the length of its leading hit
/// run, produced by [`CacheSim::resolve_hit_run`] and consumed by
/// [`CacheSim::retire_hit_run`].
///
/// A manager that must hit in several structures resolves the group in
/// the first, only that run's lanes in the next (so each run is no longer
/// than the one before), [`truncates`](HitRun::truncate) the earlier runs
/// to the last, and retires them one structure after another: each
/// structure then sees exactly the hits of the sequential path, in lane
/// order.
#[derive(Clone, Copy, Debug)]
pub struct HitRun {
    /// Per-lane slot, or [`NO_SLOT`] (also past the group's last lane).
    slots: [u32; LANES],
    /// Leading lanes whose slot resolved.
    len: usize,
}

impl HitRun {
    /// Lanes in the leading hit run.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the group's first lane missed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shortens the run to at most `len` lanes.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Resolves each lane this run missed from `fallback` — the same
    /// group resolved under each lane's second-choice key in the same
    /// structure (an ASID-tagged TLB's global entry behind the private
    /// one) — and re-derives the leading run. Returns the bitmask of lanes
    /// that took the fallback.
    #[inline]
    pub fn or_fallback(&mut self, fallback: &HitRun) -> u32 {
        let mut taken = 0u32;
        for (i, (s, &f)) in self.slots.iter_mut().zip(&fallback.slots).enumerate() {
            if *s == NO_SLOT && f != NO_SLOT {
                *s = f;
                taken |= 1 << i;
            }
        }
        self.len = leading_run(&self.slots);
        taken
    }

    /// The run's slots, in lane order.
    #[inline]
    fn slots(&self) -> &[u32] {
        self.slots.get(..self.len).unwrap_or(&[])
    }
}

/// Length of the leading run of resolved lanes.
#[inline]
fn leading_run(slots: &[u32; LANES]) -> usize {
    slots.iter().take_while(|&&s| s != NO_SLOT).count()
}

/// A capacity-bounded cache over keys `K` (optionally carrying a value `V`
/// per entry), with replacement delegated to a [`Policy`].
///
/// Used throughout the workspace as the content-tracker for both RAM (keys =
/// pages or huge pages, no value) and TLBs (keys = huge-page ids, value =
/// the translation payload). Explicit removal is supported for TLB
/// shootdowns and decoupling-driven invalidations.
///
/// ```
/// use atp_replacement::{AccessResult, CacheSim, Lru};
///
/// let mut cache = CacheSim::new(2, Lru::new(2));
/// cache.access(1u64);
/// cache.access(2);
/// cache.access(1); // refresh 1
/// match cache.access(3) {
///     AccessResult::Miss { evicted } => assert_eq!(evicted, Some(2)),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct CacheSim<K, P: Policy, V = ()> {
    capacity: usize,
    index: SlotIndex,
    /// SoA slot arenas: `keys[slot]`/`vals[slot]`, `None` = free slot. Keys
    /// are the occupancy truth (slot-order scans read only this array);
    /// values sit apart so key-validation probes never drag value lines in.
    keys: Vec<Option<K>>,
    vals: Vec<Option<V>>,
    free: Vec<u32>,
    policy: P,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Copy, P: Policy, V> CacheSim<K, P, V> {
    /// Creates a cache of `capacity` entries driven by `policy`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `capacity >= u32::MAX` (slot ids are
    /// 32-bit).
    pub fn new(capacity: usize, policy: P) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(
            capacity < u32::MAX as usize,
            "cache capacity exceeds u32 slot ids"
        );
        Self {
            capacity,
            index: SlotIndex::with_capacity(capacity),
            keys: (0..capacity).map(|_| None).collect(),
            vals: (0..capacity).map(|_| None).collect(),
            free: (0..capacity as u32).rev().collect(),
            policy,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Single bounds-checked read of the key arena.
    ///
    /// Slot ids circulate between the free list and the index, and both
    /// are populated only with ids `< capacity` (allocated in `new`,
    /// returned on release); the arenas never reallocate. Centralized so
    /// the hot-path panic audit has one indexing site per arena to
    /// reason about.
    #[inline]
    fn key_at(&self, slot: u32) -> &Option<K> {
        // atp-lint: allow(no-panic-hotpath, reason = "slot ids come only from the index or the free list, both populated exclusively with ids < capacity; the arenas are fixed at capacity entries")
        &self.keys[slot as usize]
    }

    /// Mutable twin of [`Self::key_at`]; same in-bounds argument.
    #[inline]
    fn key_at_mut(&mut self, slot: u32) -> &mut Option<K> {
        // atp-lint: allow(no-panic-hotpath, reason = "slot ids come only from the index or the free list, both populated exclusively with ids < capacity; the arenas are fixed at capacity entries")
        &mut self.keys[slot as usize]
    }

    /// Value-arena twin of [`Self::key_at`]; same in-bounds argument.
    #[inline]
    fn val_at(&self, slot: u32) -> &Option<V> {
        // atp-lint: allow(no-panic-hotpath, reason = "slot ids come only from the index or the free list, both populated exclusively with ids < capacity; the arenas are fixed at capacity entries")
        &self.vals[slot as usize]
    }

    /// Mutable twin of [`Self::val_at`]; same in-bounds argument.
    #[inline]
    fn val_at_mut(&mut self, slot: u32) -> &mut Option<V> {
        // atp-lint: allow(no-panic-hotpath, reason = "slot ids come only from the index or the free list, both populated exclusively with ids < capacity; the arenas are fixed at capacity entries")
        &mut self.vals[slot as usize]
    }

    /// Whether `slot`'s arena key is exactly `k` — the equality callback
    /// every index probe delegates to.
    #[inline]
    fn key_eq(&self, slot: u32, k: &K) -> bool {
        self.key_at(slot).as_ref() == Some(k)
    }

    /// Resolves `k` to its slot id without touching policy or counters.
    #[inline]
    fn probe(&self, h: u64, k: &K) -> Option<u32> {
        self.index.get(h, |s| self.key_eq(s, k))
    }

    /// Whether `k` is resident (does not touch the policy).
    #[inline]
    pub fn contains(&self, k: &K) -> bool {
        self.probe(fx_hash(k), k).is_some()
    }

    /// Hit count so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Warms the probe line for `k` without resolving the probe — the
    /// prefetch stage of a batched pipeline. Semantically a no-op: no
    /// policy update, no counters, no membership change.
    #[inline]
    pub fn touch(&self, k: &K) {
        self.index.touch(fx_hash(k));
    }

    /// Pure-read step of the lane-group retire: hashes and wide-probes
    /// the first [`LANES`] keys of `keys` (their probe-line misses
    /// overlap), prefetches the policy metadata of the leading run that
    /// resolved, and returns every lane's resolution plus that run's
    /// length. Policy state, counters, and membership are untouched, so
    /// the resolutions stay valid until the next membership mutation
    /// (insert, eviction, removal). Hits never mutate membership, which is
    /// what lets a batched manager resolve a whole lane group up front —
    /// in every structure it must hit, so all their prefetches are in
    /// flight together — and then retire the leading hit run through
    /// [`CacheSim::retire_hit_run`] in access order.
    #[inline]
    pub fn resolve_hit_run(&self, keys: &[K]) -> HitRun {
        let keys = keys.get(..LANES).unwrap_or(keys);
        let n = keys.len();
        let mut hashes = [0u64; LANES];
        for (h, k) in hashes.iter_mut().zip(keys) {
            *h = fx_hash(k);
        }
        let mut run = HitRun {
            slots: [NO_SLOT; LANES],
            len: 0,
        };
        let arena = &self.keys;
        self.index
            .get_wide(&hashes[..n], &mut run.slots[..n], |lane, s| {
                arena[s as usize].as_ref() == Some(&keys[lane])
            });
        run.len = leading_run(&run.slots);
        for &s in run.slots() {
            self.touch_slot(s);
        }
        run
    }

    /// Apply step of the lane-group retire: retires a run resolved by
    /// [`CacheSim::resolve_hit_run`] (possibly truncated) in lane order,
    /// each lane exactly the hit path of [`CacheSim::access_if_present`]
    /// (policy refresh + hit counter), minus the probe. No membership
    /// mutation may happen between the two steps.
    #[inline]
    pub fn retire_hit_run(&mut self, run: &HitRun) {
        for &s in run.slots() {
            self.apply_hit_counted(s);
        }
    }

    /// Retires one hit on a resolved `slot`: the hit path of
    /// [`CacheSim::access_if_present`] (policy refresh + hit counter)
    /// without the probe and without reading the value arena, so batch
    /// retire loops that report a hit total never drag value lines
    /// through the cache. `slot` must be a live resolution — no
    /// membership mutation since it was resolved, or revalidated through
    /// [`CacheSim::slot_holds`].
    #[inline]
    pub fn apply_hit_counted(&mut self, slot: u32) {
        debug_assert_ne!(slot, NO_SLOT, "hit retired on a missed lane");
        self.policy.on_hit(slot as SlotId);
        self.hits += 1;
    }

    /// Counts a hit whose policy refresh is elided because the immediately
    /// preceding operation was a hit on the same slot: `on_hit` is
    /// idempotent under immediate repetition (a [`Policy`] contract for
    /// policies opting into coalescing), so the second call would leave
    /// identical policy state. The caller is responsible for proving "same
    /// slot, hit, nothing in between, policy opted in" — batch retire
    /// loops gate on [`CacheSim::coalesces_repeat_hits`], track the last
    /// retired hit slot, and reset it on any insert.
    #[inline]
    pub fn count_repeat_hit(&mut self) {
        self.hits += 1;
    }

    /// Whether the policy opted into repeat-hit coalescing (see
    /// [`Policy::coalesces_repeat_hits`]). Hoist out of retire loops; it
    /// constant-folds under monomorphization.
    #[inline]
    pub fn coalesces_repeat_hits(&self) -> bool {
        self.policy.coalesces_repeat_hits()
    }

    /// Whether `slot` currently holds exactly the key `k` — an O(1)
    /// residency proof against the key arena (each resident key occupies
    /// exactly one slot, and the arena is the occupancy truth). Batched
    /// engines use this to *revalidate* a speculative resolution at retire
    /// time: a `true` here means a probe performed now would resolve `k`
    /// to `slot`, no matter what insertions, evictions, or invalidations
    /// happened since the resolution was produced. No policy update, no
    /// counters.
    ///
    /// `slot` must be below capacity (any slot id the sim ever returned).
    #[inline]
    pub fn slot_holds(&self, slot: u32, k: &K) -> bool {
        self.key_eq(slot, k)
    }

    /// Resolves `k` (whose Fx hash the caller precomputed as `h`) to its
    /// slot id, or [`NO_SLOT`]. Pure read — no policy update, no counters.
    #[inline]
    pub fn probe_slot_hashed(&self, h: u64, k: &K) -> u32 {
        self.probe(h, k).unwrap_or(NO_SLOT)
    }

    /// Buckets a probe for `k` (precomputed hash `h`) inspects before
    /// terminating. Pure read — no policy update, no counters — used by
    /// profiled paths to histogram probe lengths. Always ≥ 1.
    #[inline]
    pub fn probe_len_hashed(&self, h: u64, k: &K) -> u64 {
        self.index.probe_len(h, |s| self.key_eq(s, k))
    }

    /// [`CacheSim::access_if_present`] with a precomputed hash, returning
    /// the hit's slot id instead of its value: a hit refreshes the policy,
    /// bumps the hit counter, and returns the slot; a miss bumps the miss
    /// counter and returns `None`. The slow lane of a batched retire loop,
    /// where the hash was computed in the batch's precompute stage and the
    /// caller wants the slot to refresh its resolution cache.
    #[inline]
    pub fn access_slot_hashed(&mut self, h: u64, k: &K) -> Option<u32> {
        match self.probe(h, k) {
            Some(slot) => {
                self.policy.on_hit(slot as SlotId);
                self.hits += 1;
                Some(slot)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`CacheSim::insert_cold_with`] with a precomputed hash and the
    /// residency assertion reduced to a debug check, returning the slot
    /// the key landed in. The caller must have *just* probed `k` absent
    /// with no intervening mutation — the batched miss lane, where the
    /// probe that reported the miss doubles as the absence proof the
    /// scalar path re-derives with an extra probe.
    pub fn insert_cold_hashed(&mut self, h: u64, k: K, v: V) -> (u32, Option<(K, V)>) {
        debug_assert!(self.probe(h, &k).is_none(), "insert_cold on resident key");
        let mut evicted = None;
        if self.index.len() == self.capacity {
            evicted = self.evict_one_entry();
            debug_assert!(evicted.is_some(), "full cache must yield a victim");
        }
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "invariant: a free slot exists after an eviction or under capacity")
        let slot = self.free.pop().expect("free slot available");
        *self.key_at_mut(slot) = Some(k);
        *self.val_at_mut(slot) = Some(v);
        self.index.insert(h, slot);
        self.policy.on_insert(slot as SlotId);
        (slot, evicted)
    }

    /// Prefetches the policy's metadata lines for a resolved slot — the
    /// last part of [`CacheSim::resolve_hit_run`], which the managers'
    /// lane-group retire (`X`, `Y`, the classic simulator, the ASID-tagged
    /// tenant manager) runs. The speculative `Tlb` batch loop does not
    /// call it: on its cache-resident structures the forced metadata
    /// reads cost more than the prefetch bought. Semantically a no-op.
    #[inline]
    fn touch_slot(&self, slot: u32) {
        self.policy.touch(slot as SlotId);
    }

    /// Accesses `k` *only if resident*: one hash probe. A hit refreshes the
    /// policy, bumps the hit counter, and returns the value; a miss bumps
    /// the miss counter and returns `None` without inserting anything.
    ///
    /// This is the whole TLB/cache hot path — callers must not pair it with
    /// a preceding [`CacheSim::contains`] (that is the double-probe pattern
    /// this method exists to remove).
    #[inline]
    pub fn access_if_present(&mut self, k: &K) -> Option<&V> {
        match self.probe(fx_hash(k), k) {
            Some(slot) => {
                self.policy.on_hit(slot as SlotId);
                self.hits += 1;
                match &self.vals[slot as usize] {
                    Some(v) => Some(v),
                    None => unreachable!("mapped slot occupied"),
                }
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads the value of `k` without touching recency or counters.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        let slot = self.probe(fx_hash(k), k)?;
        self.val_at(slot).as_ref()
    }

    /// Mutable access to the value of `k` without touching recency or
    /// counters (free ψ-updates in the paper's cost model).
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        let slot = self.probe(fx_hash(k), k)?;
        self.val_at_mut(slot).as_mut()
    }

    /// Inserts a key known to be absent with its value, returning the
    /// evicted victim entry if the cache was full.
    ///
    /// # Panics
    /// Panics if `k` is already resident.
    pub fn insert_cold_with(&mut self, k: K, v: V) -> Option<(K, V)> {
        let h = fx_hash(&k);
        // atp-lint: allow(no-panic-hotpath, reason = "documented `# Panics` contract: inserting a resident key would corrupt the one-slot-per-key invariant, so it must fail fast")
        assert!(self.probe(h, &k).is_none(), "insert_cold on resident key");
        self.insert_cold_hashed(h, k, v).1
    }

    /// Detaches `slot` from the arenas, the index, and the policy,
    /// returning its entry. The caller guarantees the slot is occupied.
    fn release_slot(&mut self, slot: u32) -> (K, V) {
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "invariant: callers resolve the slot through the index or observe it occupied first")
        let k = self.key_at_mut(slot).take().expect("slot key occupied");
        let v = self.val_at_mut(slot).take();
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "invariant: key and value arenas are occupied in lockstep")
        let v = v.expect("slot value occupied");
        self.policy.on_remove(slot as SlotId);
        self.index.remove(fx_hash(&k), |s| s == slot);
        self.free.push(slot);
        (k, v)
    }

    /// Forces eviction of the policy's preferred victim, returning its
    /// entry (`None` if the cache is empty). Used by managers whose real
    /// capacity constraint is external (e.g. physical frames rather than
    /// entries).
    pub fn evict_one_entry(&mut self) -> Option<(K, V)> {
        if self.index.is_empty() {
            return None;
        }
        let victim_slot = self.policy.choose_victim();
        Some(self.release_slot(victim_slot as u32))
    }

    /// Explicitly removes `k` (invalidation), returning its value if it was
    /// resident. One hash probe.
    pub fn remove_entry(&mut self, k: &K) -> Option<V> {
        let slot = self.probe(fx_hash(k), k)?;
        Some(self.release_slot(slot).1)
    }

    /// Explicitly removes `k` (invalidation), returning whether it was
    /// resident.
    pub fn remove(&mut self, k: &K) -> bool {
        self.remove_entry(k).is_some()
    }

    /// Removes every resident entry whose key satisfies `pred`, returning
    /// how many were removed. Scans the slot arena in slot order, so the
    /// removal sequence is deterministic. Used for bulk invalidation —
    /// tearing down one tenant's entries out of a shared structure
    /// (`flush_asid`, tenant retirement) without disturbing the rest.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> u64 {
        let mut removed = 0u64;
        for slot in 0..self.capacity {
            let matches = match &self.keys[slot] {
                Some(k) => pred(k),
                None => false,
            };
            if matches {
                self.release_slot(slot as u32);
                removed += 1;
            }
        }
        removed
    }

    /// Iterates over resident keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.keys.iter().filter_map(|k| k.as_ref())
    }

    /// Iterates over resident `(key, value)` pairs in slot-arena order
    /// (arbitrary from the caller's point of view).
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter_map(|(k, v)| Some((k.as_ref()?, v.as_ref()?)))
    }

    /// Access to the policy (for tests / instrumentation).
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

/// Keys-only API: the original `CacheSim` surface, for residency caches
/// that track membership without a payload.
impl<K: Eq + Hash + Copy, P: Policy> CacheSim<K, P, ()> {
    /// Accesses `k`: on a miss, inserts it (possibly evicting).
    #[inline]
    pub fn access(&mut self, k: K) -> AccessResult<K> {
        let h = fx_hash(&k);
        if let Some(slot) = self.probe(h, &k) {
            self.policy.on_hit(slot as SlotId);
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        let mut evicted = None;
        if self.index.len() == self.capacity {
            evicted = self.evict_one_entry().map(|(k, ())| k);
            debug_assert!(evicted.is_some(), "full cache must yield a victim");
        }
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "invariant: a free slot exists after an eviction or under capacity")
        let slot = self.free.pop().expect("free slot available");
        *self.key_at_mut(slot) = Some(k);
        *self.val_at_mut(slot) = Some(());
        self.index.insert(h, slot);
        self.policy.on_insert(slot as SlotId);
        AccessResult::Miss { evicted }
    }

    /// Inserts a key known to be absent, returning the evicted victim if the
    /// cache was full.
    ///
    /// # Panics
    /// Panics if `k` is already resident.
    pub fn insert_cold(&mut self, k: K) -> Option<K> {
        self.insert_cold_with(k, ()).map(|(victim, ())| victim)
    }

    /// Forces eviction of the policy's preferred victim, returning it
    /// (`None` if the cache is empty).
    pub fn evict_one(&mut self) -> Option<K> {
        self.evict_one_entry().map(|(k, ())| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;

    fn lru_cache(cap: usize) -> CacheSim<u64, Lru> {
        CacheSim::new(cap, Lru::new(cap))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = lru_cache(2);
        assert!(!c.access(1).is_hit());
        assert!(c.access(1).is_hit());
        assert!(!c.access(2).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_reports_victim() {
        let mut c = lru_cache(2);
        c.access(1);
        c.access(2);
        match c.access(3) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(1)),
            _ => panic!("expected miss"),
        }
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&3));
    }

    #[test]
    fn explicit_remove_frees_capacity() {
        let mut c = lru_cache(2);
        c.access(1);
        c.access(2);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        // Next miss should not evict.
        match c.access(3) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, None),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        lru_cache(0);
    }

    #[test]
    #[should_panic(expected = "insert_cold on resident key")]
    fn insert_cold_rejects_resident() {
        let mut c = lru_cache(2);
        c.access(5);
        c.insert_cold(5);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut c = lru_cache(4);
        for k in 0..100u64 {
            c.access(k % 13);
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn evict_one_honors_policy_order() {
        let mut c = lru_cache(3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // refresh
        assert_eq!(c.evict_one(), Some(2));
        assert_eq!(c.evict_one(), Some(3));
        assert_eq!(c.evict_one(), Some(1));
        assert_eq!(c.evict_one(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn evict_one_frees_capacity() {
        let mut c = lru_cache(2);
        c.access(1);
        c.access(2);
        c.evict_one();
        match c.access(3) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, None),
            _ => panic!(),
        }
    }

    #[test]
    fn keys_iterates_residents() {
        let mut c = lru_cache(3);
        c.access(10);
        c.access(20);
        let mut ks: Vec<u64> = c.keys().copied().collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![10, 20]);
    }

    #[test]
    fn values_live_in_the_arena() {
        let mut c: CacheSim<u64, Lru, String> = CacheSim::new(2, Lru::new(2));
        assert!(c.insert_cold_with(1, "one".into()).is_none());
        assert!(c.insert_cold_with(2, "two".into()).is_none());
        assert_eq!(c.access_if_present(&1), Some(&"one".to_string()));
        // 2 is now LRU; inserting 3 evicts it with its value.
        let evicted = c.insert_cold_with(3, "three".into());
        assert_eq!(evicted, Some((2, "two".to_string())));
        assert_eq!(c.access_if_present(&2), None);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn get_and_get_mut_skip_recency() {
        let mut c: CacheSim<u64, Lru, u32> = CacheSim::new(2, Lru::new(2));
        c.insert_cold_with(1, 10);
        c.insert_cold_with(2, 20);
        *c.get_mut(&1).unwrap() += 1;
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!((c.hits(), c.misses()), (0, 0), "peeks must not count");
        // 1 was NOT refreshed by get/get_mut: it is still the LRU victim.
        assert_eq!(c.insert_cold_with(3, 30), Some((1, 11)));
    }

    #[test]
    fn touch_is_semantically_inert() {
        let mut c: CacheSim<u64, Lru, u32> = CacheSim::new(2, Lru::new(2));
        c.insert_cold_with(1, 10);
        c.touch(&1);
        c.touch(&99);
        assert_eq!((c.hits(), c.misses()), (0, 0), "touch must not count");
        assert_eq!(c.len(), 1);
        // 1 was NOT refreshed: still the (only) LRU victim.
        c.insert_cold_with(2, 20);
        assert_eq!(c.insert_cold_with(3, 30), Some((1, 10)));
    }

    #[test]
    fn probe_len_is_a_pure_read() {
        let mut c = lru_cache(4);
        c.access(1);
        c.access(2);
        let h = fx_hash(&1u64);
        let len = c.probe_len_hashed(h, &1);
        assert!(len >= 1);
        assert_eq!((c.hits(), c.misses()), (0, 2), "probe_len must not count");
        // Absent key: still a pure read, still ≥ 1.
        let h9 = fx_hash(&9u64);
        assert!(c.probe_len_hashed(h9, &9) >= 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lane_group_retire_is_the_sequential_hit_path() {
        let mut c = lru_cache(4);
        let mut gold = lru_cache(4);
        for k in 0..4u64 {
            c.access(k);
            gold.access(k);
        }
        // Lanes 0..3 resolve; lane 3 misses and ends the run even though
        // lane 4 would hit.
        let run = c.resolve_hit_run(&[2, 0, 2, 9, 1]);
        assert_eq!(run.len(), 3);
        assert_eq!((c.hits(), c.misses()), (0, 4), "resolution is a pure read");
        c.retire_hit_run(&run);
        for k in [2, 0, 2] {
            gold.access(k);
        }
        assert_eq!((c.hits(), c.misses()), (gold.hits(), gold.misses()));
        // Same recency: the same victims in the same order.
        for _ in 0..4 {
            assert_eq!(c.evict_one(), gold.evict_one());
        }
    }

    #[test]
    fn hit_run_truncates_and_falls_back() {
        let mut c = lru_cache(8);
        for k in [1u64, 2, 10] {
            c.access(k);
        }
        let mut run = c.resolve_hit_run(&[1, 3, 2]);
        assert_eq!(run.len(), 1, "lane 1 misses");
        let fallback = c.resolve_hit_run(&[9, 10, 11]);
        assert_eq!(run.or_fallback(&fallback), 0b010, "lane 1 falls back");
        assert_eq!(run.len(), 3);
        run.truncate(2);
        run.truncate(5);
        assert_eq!(run.len(), 2, "truncate never lengthens");
        // A group wider than LANES resolves its first LANES lanes only.
        assert_eq!(c.resolve_hit_run(&[1; LANES + 4]).len(), LANES);
    }

    #[test]
    fn remove_entry_returns_value() {
        let mut c: CacheSim<u64, Lru, u32> = CacheSim::new(2, Lru::new(2));
        c.insert_cold_with(7, 70);
        assert_eq!(c.remove_entry(&7), Some(70));
        assert_eq!(c.remove_entry(&7), None);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_matching_bulk_invalidates() {
        let mut c = lru_cache(8);
        for k in 0..8u64 {
            c.access(k);
        }
        assert_eq!(c.remove_matching(|&k| k % 2 == 0), 4);
        assert_eq!(c.len(), 4);
        for k in 0..8u64 {
            assert_eq!(c.contains(&k), k % 2 == 1);
        }
        // Freed capacity is reusable and survivors keep working.
        assert!(c.access(1).is_hit());
        match c.access(100) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, None),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.remove_matching(|_| false), 0);
    }

    #[test]
    fn entries_iterates_pairs() {
        let mut c: CacheSim<u64, Lru, u32> = CacheSim::new(3, Lru::new(3));
        c.insert_cold_with(1, 10);
        c.insert_cold_with(2, 20);
        let mut pairs: Vec<(u64, u32)> = c.entries().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        // Interleave access / remove / evict over a small key space so the
        // index's backward-shift deletion and slot reuse get exercised hard.
        let mut c = lru_cache(16);
        let mut model: Vec<u64> = Vec::new(); // recency order, LRU first
        for step in 0u64..50_000 {
            let k = (step.wrapping_mul(0x9E37_79B9)) % 48;
            match step % 7 {
                6 => {
                    let was = model.iter().position(|&m| m == k);
                    assert_eq!(c.remove(&k), was.is_some(), "step {step}");
                    if let Some(i) = was {
                        model.remove(i);
                    }
                }
                5 => {
                    assert_eq!(c.evict_one(), model.first().copied(), "step {step}");
                    if !model.is_empty() {
                        model.remove(0);
                    }
                }
                _ => {
                    let hit = c.access(k).is_hit();
                    let was = model.iter().position(|&m| m == k);
                    assert_eq!(hit, was.is_some(), "step {step}");
                    if let Some(i) = was {
                        model.remove(i);
                    } else if model.len() == 16 {
                        model.remove(0);
                    }
                    model.push(k);
                }
            }
            assert_eq!(c.len(), model.len(), "step {step}");
        }
    }
}
