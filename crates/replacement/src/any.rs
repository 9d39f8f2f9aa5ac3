//! Runtime-selected policy with inline fast paths.
//!
//! [`AnyPolicy`] is the bridge between the two dispatch worlds: code that
//! knows its policy at compile time instantiates `CacheSim<K, Lru>` /
//! `Tlb<V, Sieve>` and gets fully monomorphized callbacks, while code
//! configured from a [`PolicyKind`] (sweep drivers, CLI flags) uses
//! `CacheSim<K, AnyPolicy>`. The set is closed: every kind is an inline
//! enum variant, so dispatch is a branch-predictable `match`, not a vtable
//! call.

use crate::clock::Clock;
use crate::fifo::Fifo;
use crate::lru::Lru;
use crate::marking::Marking;
use crate::policy::{Policy, PolicyBuild, PolicyKind, SlotId};
use crate::sieve::Sieve;

/// A policy chosen at runtime, one inline variant per [`PolicyKind`].
/// Behavior is identical to the wrapped policy's.
#[derive(Debug)]
pub enum AnyPolicy {
    /// Least-recently used.
    Lru(Lru),
    /// First-in first-out.
    Fifo(Fifo),
    /// CLOCK / second chance.
    Clock(Clock),
    /// SIEVE.
    Sieve(Sieve),
    /// Randomized marking.
    Marking(Marking),
}

impl AnyPolicy {
    /// Builds the policy of `kind` for a cache of `capacity` slots.
    /// Deterministic kinds ignore `seed`.
    pub fn new(kind: PolicyKind, capacity: usize, seed: u64) -> Self {
        match kind {
            PolicyKind::Lru => AnyPolicy::Lru(Lru::new(capacity)),
            PolicyKind::Fifo => AnyPolicy::Fifo(Fifo::new(capacity)),
            PolicyKind::Clock => AnyPolicy::Clock(Clock::new(capacity)),
            PolicyKind::Sieve => AnyPolicy::Sieve(Sieve::new(capacity)),
            PolicyKind::Marking => AnyPolicy::Marking(Marking::new(capacity, seed)),
        }
    }
}

impl Policy for AnyPolicy {
    #[inline]
    fn on_insert(&mut self, s: SlotId) {
        match self {
            AnyPolicy::Lru(p) => p.on_insert(s),
            AnyPolicy::Fifo(p) => p.on_insert(s),
            AnyPolicy::Clock(p) => p.on_insert(s),
            AnyPolicy::Sieve(p) => p.on_insert(s),
            AnyPolicy::Marking(p) => p.on_insert(s),
        }
    }

    #[inline]
    fn on_hit(&mut self, s: SlotId) {
        match self {
            AnyPolicy::Lru(p) => p.on_hit(s),
            AnyPolicy::Fifo(p) => p.on_hit(s),
            AnyPolicy::Clock(p) => p.on_hit(s),
            AnyPolicy::Sieve(p) => p.on_hit(s),
            AnyPolicy::Marking(p) => p.on_hit(s),
        }
    }

    #[inline]
    fn choose_victim(&mut self) -> SlotId {
        match self {
            AnyPolicy::Lru(p) => p.choose_victim(),
            AnyPolicy::Fifo(p) => p.choose_victim(),
            AnyPolicy::Clock(p) => p.choose_victim(),
            AnyPolicy::Sieve(p) => p.choose_victim(),
            AnyPolicy::Marking(p) => p.choose_victim(),
        }
    }

    #[inline]
    fn on_remove(&mut self, s: SlotId) {
        match self {
            AnyPolicy::Lru(p) => p.on_remove(s),
            AnyPolicy::Fifo(p) => p.on_remove(s),
            AnyPolicy::Clock(p) => p.on_remove(s),
            AnyPolicy::Sieve(p) => p.on_remove(s),
            AnyPolicy::Marking(p) => p.on_remove(s),
        }
    }

    fn kind(&self) -> PolicyKind {
        match self {
            AnyPolicy::Lru(p) => p.kind(),
            AnyPolicy::Fifo(p) => p.kind(),
            AnyPolicy::Clock(p) => p.kind(),
            AnyPolicy::Sieve(p) => p.kind(),
            AnyPolicy::Marking(p) => p.kind(),
        }
    }

    fn coalesces_repeat_hits(&self) -> bool {
        match self {
            AnyPolicy::Lru(p) => p.coalesces_repeat_hits(),
            AnyPolicy::Fifo(p) => p.coalesces_repeat_hits(),
            AnyPolicy::Clock(p) => p.coalesces_repeat_hits(),
            AnyPolicy::Sieve(p) => p.coalesces_repeat_hits(),
            AnyPolicy::Marking(p) => p.coalesces_repeat_hits(),
        }
    }

    #[inline]
    fn touch(&self, s: SlotId) {
        match self {
            AnyPolicy::Lru(p) => p.touch(s),
            AnyPolicy::Fifo(p) => p.touch(s),
            AnyPolicy::Clock(p) => p.touch(s),
            AnyPolicy::Sieve(p) => p.touch(s),
            AnyPolicy::Marking(p) => p.touch(s),
        }
    }
}

impl PolicyBuild for Lru {
    fn build(capacity: usize, _seed: u64) -> Self {
        Lru::new(capacity)
    }
}

impl PolicyBuild for Fifo {
    fn build(capacity: usize, _seed: u64) -> Self {
        Fifo::new(capacity)
    }
}

impl PolicyBuild for Clock {
    fn build(capacity: usize, _seed: u64) -> Self {
        Clock::new(capacity)
    }
}

impl PolicyBuild for Sieve {
    fn build(capacity: usize, _seed: u64) -> Self {
        Sieve::new(capacity)
    }
}

impl PolicyBuild for Marking {
    fn build(capacity: usize, seed: u64) -> Self {
        Marking::new(capacity, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessResult, CacheSim};

    /// Replays `keys` through a monomorphic `CacheSim<u64, P>`: every
    /// access's result, then the hit count.
    fn replay<P: PolicyBuild>(
        cap: usize,
        seed: u64,
        keys: &[u64],
    ) -> (Vec<AccessResult<u64>>, u64) {
        let mut sim: CacheSim<u64, P> = CacheSim::new(cap, P::build(cap, seed));
        let results = keys.iter().map(|&k| sim.access(k)).collect();
        (results, sim.hits())
    }

    /// AnyPolicy must replay the exact same eviction stream as the
    /// monomorphic policy it wraps, for every kind.
    #[test]
    fn any_matches_wrapped_policy() {
        let (cap, seed) = (4, 42);
        let mut x: u64 = 0x9E37;
        let keys: Vec<u64> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 9
            })
            .collect();
        for kind in PolicyKind::ALL {
            let (mono, mono_hits) = match kind {
                PolicyKind::Lru => replay::<Lru>(cap, seed, &keys),
                PolicyKind::Fifo => replay::<Fifo>(cap, seed, &keys),
                PolicyKind::Clock => replay::<Clock>(cap, seed, &keys),
                PolicyKind::Sieve => replay::<Sieve>(cap, seed, &keys),
                PolicyKind::Marking => replay::<Marking>(cap, seed, &keys),
            };
            let mut any: CacheSim<u64, AnyPolicy> =
                CacheSim::new(cap, AnyPolicy::new(kind, cap, seed));
            let results: Vec<_> = keys.iter().map(|&k| any.access(k)).collect();
            assert_eq!(mono, results, "{kind} diverged");
            assert_eq!(mono_hits, any.hits());
            assert_eq!(any.policy().kind(), kind);
        }
    }

    #[test]
    fn build_trait_constructs_working_policies() {
        let mut c: CacheSim<u64, Sieve> = CacheSim::new(2, Sieve::build(2, 0));
        c.access(1);
        c.access(2);
        assert!(c.access(1).is_hit());
    }
}
