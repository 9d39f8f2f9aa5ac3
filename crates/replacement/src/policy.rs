//! The replacement-policy callback interface.

/// A cache slot index, allocated by [`crate::cache::CacheSim`];
/// always `< capacity`.
pub type SlotId = usize;

/// Callback interface implemented by every online replacement policy.
///
/// The driving [`crate::cache::CacheSim`] owns the key→slot map; the policy
/// only sees opaque slot ids and maintains whatever recency/frequency
/// structure it needs. Contract:
///
/// * `on_insert(s)` — a new item was placed in previously-free slot `s`;
/// * `on_hit(s)` — the item in slot `s` was accessed;
/// * `choose_victim()` — the cache is full; return an occupied slot to evict
///   (the simulator will follow up with `on_remove` for that slot);
/// * `on_remove(s)` — the item in slot `s` is gone (eviction *or* explicit
///   invalidation); the policy must forget it.
///
/// A policy whose `on_hit` is **idempotent under immediate repetition** —
/// `on_hit(s); on_hit(s)` with no other calls in between leaves the same
/// state as a single `on_hit(s)` — may additionally opt into repeat-hit
/// coalescing via [`Policy::coalesces_repeat_hits`]: batch retire loops
/// then elide the second call of a back-to-back repeat hit. Every
/// recency/flag policy is idempotent this way (moving the list head to the
/// front, re-setting a reference bit), but the elision bookkeeping only
/// pays for itself when `on_hit` is genuinely expensive, so only LRU (whose
/// `on_hit` is a list splice) opts in. A hit-*counting* policy would not be
/// idempotent and must never opt in. Pinned per policy by the `atp-check`
/// differential suites.
pub trait Policy: Send {
    /// Records the insertion of a new item into free slot `s`.
    fn on_insert(&mut self, s: SlotId);
    /// Records a hit on the item in slot `s`.
    fn on_hit(&mut self, s: SlotId);
    /// Selects an occupied slot to evict.
    fn choose_victim(&mut self) -> SlotId;
    /// Records removal of the item in slot `s`.
    fn on_remove(&mut self, s: SlotId);
    /// The policy's kind, for reporting.
    fn kind(&self) -> PolicyKind;
    /// Prefetch hint: pulls the metadata lines for slot `s` toward the
    /// core without mutating policy state. Batched engines call this one
    /// pipeline stage ahead of [`Policy::on_hit`] so several slots'
    /// recency structures are fetched with overlapping memory-level
    /// parallelism. Must be behaviourally a no-op; the default is one.
    fn touch(&self, _s: SlotId) {}
    /// Whether batch retire loops should track the last retired hit slot
    /// and elide `on_hit` for a back-to-back repeat (see the trait docs
    /// for the idempotency contract this asserts). Opt in only when
    /// `on_hit` costs more than the per-access tracking compare — LRU's
    /// list splice does, a reference-bit store does not. Default: `false`.
    fn coalesces_repeat_hits(&self) -> bool {
        false
    }
}

/// A policy that can be constructed from just `(capacity, seed)` — the
/// hook that lets [`crate::cache::CacheSim`] and downstream TLB types offer
/// fully monomorphized constructors (`Tlb::<_, Sieve>::monomorphic(..)`)
/// next to the runtime-configured [`PolicyKind`] path. Deterministic
/// policies ignore the seed.
pub trait PolicyBuild: Policy + Sized {
    /// Builds the policy for a cache of `capacity` slots.
    fn build(capacity: usize, seed: u64) -> Self;
}

/// Enumeration of the online policies, for runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently used.
    Lru,
    /// First-in first-out.
    Fifo,
    /// CLOCK / second chance.
    Clock,
    /// SIEVE (Zhang et al.): FIFO + visited bit with a persistent hand.
    Sieve,
    /// Randomized marking (Fiat et al.): O(log k)-competitive.
    Marking,
}

impl PolicyKind {
    /// All kinds, for sweep experiments.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::Sieve,
        PolicyKind::Marking,
    ];

    /// Short lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Clock => "clock",
            PolicyKind::Sieve => "sieve",
            PolicyKind::Marking => "marking",
        }
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_names() {
        use atp_hash::FxHashSet;
        let names: FxHashSet<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(PolicyKind::Lru.to_string(), "lru");
        assert_eq!(PolicyKind::Marking.to_string(), "marking");
    }
}
